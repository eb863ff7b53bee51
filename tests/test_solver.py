"""Fixed-point solver tests: state norms, single steps, and full solves."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeflow import forms, gauge, lorentz, solver, synth
from gaugeflow.forms import Grid, MatrixForm
from gaugeflow.solver import PairState


def fabricated_pair(p: MatrixForm, xi: MatrixForm) -> gauge.GaugePair:
    """A gauge pair of rotation p and exactly skew potential xi."""
    d_star_xi = forms.exterior_derivative(forms.hodge_star(xi))
    diag = gauge.GaugeDiagnostics(0.0, 0.0, 0, 0.0, 0.0)
    return gauge.GaugePair(p, forms.SkewForm.skew_part(xi), forms.SkewForm.skew_part(d_star_xi),
                           diag)


def identity_pair(grid: Grid, m: int) -> gauge.GaugePair:
    shape = (1,) + (grid.res,) * grid.n + (m, m)
    p = MatrixForm(grid, 0, np.broadcast_to(np.eye(m), shape).copy())
    return fabricated_pair(p, MatrixForm.zeros(grid, 2, m))


def wedge_in_table_order(a: MatrixForm, b_coeffs: np.ndarray, q: int) -> np.ndarray:
    """a ^ b summed output by output in the wedge table's order: a first
    term straight into its output as 0 + p or 0 - p, a later one through
    a product array."""
    n = a.grid.n
    out = np.empty((len(forms.components(n, a.k + q)),) + b_coeffs.shape[1:])
    prod = np.empty(out.shape[1:])
    started = set()
    for ia, ib, io, sign in forms._wedge_table(n, a.k, q):
        if io in started:
            np.matmul(a.coeffs[ia], b_coeffs[ib], out=prod)
            forms._add_scaled(out[io], prod, sign)
            continue
        started.add(io)
        np.matmul(a.coeffs[ia], b_coeffs[ib], out=out[io])
        if sign > 0:
            out[io] += 0.0
        else:
            np.subtract(0.0, out[io], out=out[io])
    return out


def step_with_dp_held(state: PairState, pmap: solver.PicardMap) -> PairState:
    """picard_step with dP and dP^T formed whole, in the order it once ran."""
    grid = state.a.grid
    dp = forms.exterior_derivative(
        MatrixForm(grid, 0, np.swapaxes(pmap.pt, -1, -2)[None]))
    da = forms.exterior_derivative(state.a)
    d_star_b = MatrixForm(grid, grid.n - 1, forms._image(
        state.b.coeffs, forms._d_star_plan(grid.n, 2), grid.res))
    scalar = wedge_in_table_order(da, pmap.d_star_xi.expanded().coeffs, grid.n - 1)
    solver._scale(scalar, solver.SCALAR_GRADIENT_COUPLING)
    forms._add_scaled(scalar, wedge_in_table_order(d_star_b, dp.coeffs, 1),
                      solver.second_sign(grid.n))
    a_new = solver._solve_source(grid, 0, scalar, "0-form")
    two = wedge_in_table_order(da, np.ascontiguousarray(np.swapaxes(dp.coeffs, -1, -2)), 1)
    solver._scale(two, solver.TWO_FORM_JACOBIAN_COUPLING)
    current = solver._transported_current(state.a.coeffs[0] + np.eye(state.a.m), pmap)
    forms._add_image(two, current, forms._star_codiff_plan(grid.n, grid.n - 1), grid.res,
                     solver.TWO_FORM_TRANSPORT_COUPLING)
    b_new = solver._solve_source(grid, 2, two, "2-form")
    if grid.n > 2:
        forms._project_closed_in_place(b_new, grid.n, 2, grid.res)
    return PairState(MatrixForm(grid, 0, a_new), MatrixForm(grid, 2, b_new))


@pytest.fixture(scope="module")
def grid():
    return Grid(3, 16)


@pytest.fixture(scope="module")
def coexact_setup(grid):
    omega = synth.synthetic_connection(
        grid, 3, np.random.default_rng(5), kmax=2, exact_frac=0.0, target_norm=1e-2)
    return omega, gauge.minimize_gauge(omega)


@pytest.fixture(scope="module")
def mixed_setup(grid):
    omega = synth.synthetic_connection(
        grid, 3, np.random.default_rng(21), kmax=2, exact_frac=0.3, target_norm=1e-2)
    return omega, gauge.minimize_gauge(omega)


class TestStateNorm:
    def test_zero_state(self, grid):
        zero = PairState.zeros(grid, 3)
        norm = solver.state_norm(zero.a, zero.b)
        assert norm.total == 0.0
        assert (norm.sup_a, norm.da_n2, norm.db_n2) == (0.0, 0.0, 0.0)

    def test_constant_scalar_block(self, grid):
        c = np.zeros((3, 3))
        c[0, 1] = 0.3
        shape = (1,) + (grid.res,) * grid.n + (3, 3)
        a = MatrixForm(grid, 0, np.broadcast_to(c, shape).copy())
        norm = solver.state_norm(a, MatrixForm.zeros(grid, 2, 3))
        assert norm.sup_a == pytest.approx(0.3, rel=1e-12)
        assert norm.da_n2 <= 1e-13
        assert norm.total == norm.sup_a + norm.da_n2 + norm.db_n2

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(min_value=0.01, max_value=100.0))
    def test_homogeneity(self, scale):
        grid = Grid(3, 8)
        state = solver.random_state(grid, 2, np.random.default_rng(9))
        assert solver.state_norm(scale * state.a, scale * state.b).total == pytest.approx(
            scale * solver.state_norm(state.a, state.b).total, rel=1e-9)

    def test_gradient_norm_matches_exterior_derivative_on_scalars(self, grid):
        # For 0-forms the exterior derivative already lists every partial.
        a = synth.random_matrix_form(grid, 0, 2, np.random.default_rng(3), 2)
        direct = lorentz.lorentz_norm(forms.exterior_derivative(a), 3.0, 2.0)
        assert solver.gradient_norm(a) == pytest.approx(direct, rel=1e-12)

    def test_gradient_norm_vanishes_on_constants(self, grid):
        shape = (3,) + (grid.res,) * grid.n + (2, 2)
        b = MatrixForm(grid, 2, np.broadcast_to(np.eye(2), shape).copy())
        assert solver.gradient_norm(b) <= 1e-13

    def test_difference_norm_matches_the_formed_difference(self, grid, mixed_setup):
        # the 2-form difference streams one component at a time, the 0-form
        # difference is formed whole; the sums agree up to summation order
        _, pair = mixed_setup
        s1 = solver.random_state(grid, 3, np.random.default_rng(7))
        s2 = solver.picard_step(s1, solver.PicardMap.of(pair))
        got = solver._difference_norm(s2, s1)
        want = solver.state_norm(s2.a - s1.a, s2.b - s1.b)
        assert got.sup_a == want.sup_a
        assert got.da_n2 == pytest.approx(want.da_n2, rel=1e-14)
        assert got.db_n2 == pytest.approx(want.db_n2, rel=1e-14)

    def test_working_set(self, grid, mixed_setup, transient_peak):
        # One partial of one component is live at a time, and a difference
        # of 2-form blocks is never held whole: a gradient norm stays within
        # one 2-form (three when it took every partial of the whole form),
        # a difference norm within one and a half.
        _, pair = mixed_setup
        s1 = solver.random_state(grid, 3, np.random.default_rng(7))
        s2 = solver.picard_step(s1, solver.PicardMap.of(pair))
        unit = s1.b.coeffs.nbytes
        assert transient_peak(solver.gradient_norm, s1.b) <= 1.0 * unit
        assert transient_peak(solver._difference_norm, s2, s1) <= 1.5 * unit


class TestPairState:
    def test_wrong_degrees(self, grid):
        one = MatrixForm.zeros(grid, 1, 3)
        with pytest.raises(ValueError, match="0-form and a 2-form"):
            PairState(one, MatrixForm.zeros(grid, 2, 3))
        with pytest.raises(ValueError, match="0-form and a 2-form"):
            PairState(MatrixForm.zeros(grid, 0, 3), one)

    def test_incompatible_blocks(self, grid):
        with pytest.raises(ValueError, match="incompatible"):
            PairState(MatrixForm.zeros(grid, 0, 3), MatrixForm.zeros(grid, 2, 2))

    def test_top_degree_two_form_is_closed(self):
        # in n = 2 the 2-form block is closed by degree; its d is not taken
        grid = Grid(2, 16)
        b = synth.random_matrix_form(grid, 2, 3, np.random.default_rng(0), 2)
        assert PairState(MatrixForm.zeros(grid, 0, 3), b).b is b

    def test_open_two_form_rejected(self, grid):
        b = synth.random_matrix_form(grid, 2, 3, np.random.default_rng(0), 2)
        assert forms.l2_norm(forms.exterior_derivative(b)) > 1e-3
        with pytest.raises(ValueError, match="not closed"):
            PairState(MatrixForm.zeros(grid, 0, 3), b)

    def test_nan_two_form_rejected(self, grid):
        b = solver.random_state(grid, 3, np.random.default_rng(0)).b
        coeffs = b.coeffs.copy()
        coeffs[1, 2, 3, 4, 0, 1] = np.nan
        with pytest.raises(ValueError, match="not closed"):
            PairState(MatrixForm.zeros(grid, 0, 3), MatrixForm(grid, 2, coeffs))

    def test_random_state_normalized_and_deterministic(self, grid):
        s1 = solver.random_state(grid, 3, np.random.default_rng(7))
        s2 = solver.random_state(grid, 3, np.random.default_rng(7))
        assert solver.state_norm(s1.a, s1.b).total == pytest.approx(1.0, rel=1e-12)
        assert np.array_equal(s1.a.coeffs, s2.a.coeffs)
        assert np.array_equal(s1.b.coeffs, s2.b.coeffs)

    def test_closedness_checked_once_per_iterate(self, grid, coexact_setup, monkeypatch):
        # The start state and each Picard image are built once; difference
        # norms take blocks, so no other state is built or re-validated.
        omega, pair = coexact_setup
        post_init = PairState.__post_init__
        checks = []

        def counted(state):
            checks.append(state)
            post_init(state)

        monkeypatch.setattr(PairState, "__post_init__", counted)
        _, _, report = solver.solve_pair(omega, solver.PicardMap.of(pair), probe_seed=None)
        assert len(checks) == report.iterations + 1


class TestPicardStep:
    def test_trivial_gauge_sends_everything_to_zero(self, grid):
        pmap = solver.PicardMap.of(identity_pair(grid, 3))
        state = solver.random_state(grid, 3, np.random.default_rng(4))
        image = solver.picard_step(state, pmap)
        assert forms.l2_norm(image.a) <= 1e-15
        assert forms.l2_norm(image.b) <= 1e-15

    def test_zero_state_recovers_potential(self, grid, coexact_setup):
        # From (0, 0) the scalar source vanishes and the 2-form block lands
        # exactly on the gauge potential: -lap(xi) = d(d* xi) for closed xi.
        _, pair = coexact_setup
        image = solver.picard_step(PairState.zeros(grid, 3), solver.PicardMap.of(pair))
        assert forms.l2_norm(image.a) <= 1e-15
        assert forms.l2_norm(image.b - pair.xi.expanded()) <= 1e-10

    def test_map_holds_a_contiguous_transpose(self, coexact_setup):
        _, pair = coexact_setup
        pt = solver.PicardMap.of(pair).pt
        assert pt.flags.c_contiguous
        assert np.array_equal(pt, np.swapaxes(pair.P.coeffs[0], -1, -2))

    def test_map_holds_d_star_xi_as_channels(self, coexact_setup):
        # xi is exactly skew, so d(star xi) is: the map holds the pair's
        # channels, which expand to d(star xi) of xi's expansion
        _, pair = coexact_setup
        d_star_xi = solver.PicardMap.of(pair).d_star_xi
        want = forms.exterior_derivative(forms.hodge_star(pair.xi.expanded())).coeffs
        assert d_star_xi is pair.d_star_xi
        assert isinstance(d_star_xi, forms.SkewForm)
        assert np.array_equal(d_star_xi.expanded().coeffs.view(np.uint64),
                              want.view(np.uint64))

    def test_map_takes_no_derivative(self, mixed_setup, monkeypatch):
        # The map only reads the pair: P^T and the pair's d(star xi).
        _, pair = mixed_setup

        def refused(*args, **kwargs):
            raise AssertionError("building the map ran a derivative")

        for executor in ("_image", "_add_image", "_differentiate_into"):
            monkeypatch.setattr(forms, executor, refused)
        monkeypatch.setattr(forms.MatrixForm, "antisymmetry_defect", refused)
        pmap = solver.PicardMap.of(pair)
        assert pmap.d_star_xi is pair.d_star_xi

    def test_zero_state_poisson_round_trip(self, grid, coexact_setup):
        _, pair = coexact_setup
        image = solver.picard_step(PairState.zeros(grid, 3), solver.PicardMap.of(pair))
        pt = np.swapaxes(pair.P.coeffs[0], -1, -2)
        transported = forms.exterior_derivative(forms.hodge_star(pair.xi.expanded()))
        transported = transported._like(
            np.einsum("c...ij,...jk->c...ik", transported.coeffs, pt))
        src = forms.hodge_star(forms.codifferential(transported))
        defect = forms.l2_norm(forms.laplacian(image.b) + src)
        assert defect <= 1e-8 * max(1.0, forms.l2_norm(src))

    def test_map_holds_no_rotation_partial(self, grid, mixed_setup):
        # P^T and the d(star xi) channels: two thirds of a 2-form at m = 3,
        # where dP alone is one
        _, pair = mixed_setup
        pmap = solver.PicardMap.of(pair)
        held = sum(value.nbytes if isinstance(value, np.ndarray) else value.upper.nbytes
                   for value in (getattr(pmap, f.name) for f in dataclasses.fields(pmap)))
        assert held <= 0.7 * MatrixForm.zeros(grid, 2, 3).coeffs.nbytes

    def test_step_differentiates_the_rotation_in_each_wedge(self, grid, mixed_setup,
                                                            monkeypatch):
        # Building the map takes no partial of P; each step takes each of
        # the n partials of P once for d(star b) ^ dP and each of P^T once
        # for da ^ dP^T, in a solve (probe included) and a contraction
        # measurement alike.
        omega, pair = mixed_setup
        rotation = pair.P.coeffs[0]
        transposed = np.swapaxes(rotation, -1, -2)
        differentiate, step = forms._differentiate_into, solver.picard_step
        partials, steps = [], []

        def counted_partial(arr, *args):
            if arr.shape == rotation.shape and (np.array_equal(arr, rotation)
                                                or np.array_equal(arr, transposed)):
                partials.append(arr)
            return differentiate(arr, *args)

        def counted_step(*args):
            steps.append(args)
            return step(*args)

        monkeypatch.setattr(forms, "_differentiate_into", counted_partial)
        monkeypatch.setattr(solver, "picard_step", counted_step)
        pmap = solver.PicardMap.of(pair)
        assert partials == []
        _, _, report = solver.solve_pair(omega, pmap)
        assert report.iterations >= 2 and report.uniqueness_gap is not None
        assert len(steps) > report.iterations
        assert len(partials) == 2 * grid.n * len(steps)
        solver.measure_contraction(pmap, np.random.default_rng(3), samples=1)
        assert len(partials) == 2 * grid.n * len(steps)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_matches_the_step_with_dp_held(self, n):
        # The step as it was with dP held whole and each output of a wedge
        # summed term by term in table order, kept here as the reference.
        grid = Grid(n, 8)
        rng = np.random.default_rng(40 + n)
        skew = synth.random_matrix_form(grid, 0, 3, rng, kmax=2, antisymmetric=True)
        rotation = gauge.so_exp(skew.coeffs[0])
        xi = synth.random_matrix_form(grid, 2, 3, rng, kmax=2, antisymmetric=True)
        pmap = solver.PicardMap(
            gauge._transpose(rotation),
            forms.SkewForm.skew_part(forms.exterior_derivative(forms.hodge_star(xi))))
        state = solver.random_state(grid, 3, rng)
        got = solver.picard_step(state, pmap)
        want = step_with_dp_held(state, pmap)
        for block in ("a", "b"):
            assert np.array_equal(getattr(got, block).coeffs.view(np.uint64),
                                  getattr(want, block).coeffs.view(np.uint64))

    def test_working_set(self, grid, mixed_setup, transient_peak):
        # Sources are built and solved in place, every temporary is dropped
        # once consumed, and the transported current's starred
        # codifferential is added one component at a time: the step's peak
        # above its inputs, its result and the rotation's partials included,
        # stays within three and a half 2-forms (4.4 with a full-size codifferential and a copy of
        # dP^T, 8.3 when each stage held its temporaries to the end).
        _, pair = mixed_setup
        pmap = solver.PicardMap.of(pair)
        state = solver.random_state(grid, 3, np.random.default_rng(7))
        peak = transient_peak(solver.picard_step, state, pmap)
        assert peak <= 3.5 * state.b.coeffs.nbytes

    def test_contraction_ratio_small(self, grid, coexact_setup):
        _, pair = coexact_setup
        kappa = solver.measure_contraction(solver.PicardMap.of(pair), np.random.default_rng(3))
        assert kappa < 0.5
        assert kappa < 0.01

    def test_contraction_grows_with_connection_size(self, grid):
        kappas = []
        for size in (1e-3, 1e-2):
            omega = synth.synthetic_connection(
                grid, 3, np.random.default_rng(11), kmax=2,
                exact_frac=0.3, target_norm=size)
            pmap = solver.PicardMap.of(gauge.minimize_gauge(omega))
            kappas.append(solver.measure_contraction(pmap, np.random.default_rng(3)))
        assert kappas[0] < kappas[1] < 0.5


class TestSolvePair:
    def test_zero_connection(self, grid):
        omega = MatrixForm.zeros(grid, 1, 3)
        pair = gauge.minimize_gauge(omega)
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        assert np.allclose(A.coeffs[0], np.eye(3), atol=1e-14)
        assert forms.l2_norm(B) == 0.0
        assert report.residual_l2 == 0.0
        assert report.iterations == 1
        assert report.kappa_bar == 0.0
        assert report.uniqueness_gap <= 1e-12
        assert pair.diagnostics.harmonic == 0.0

    def test_coexact_connection(self, grid, coexact_setup):
        omega, pair = coexact_setup
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        assert report.iterations == 2
        assert report.residual_l2 <= 1e-12
        assert all(r <= 0.5 for r in report.ratios)
        assert forms.l2_norm(B - pair.xi.expanded()) <= 1e-12
        assert float(np.abs(A.coeffs[0] - np.eye(3)).max()) <= 1e-12
        assert report.da_n1 <= 1e-12
        assert report.db_n2 > 1e-3
        assert report.rotation_distance_sup <= 1e-12
        assert report.uniqueness_gap <= 1e-7
        assert pair.diagnostics.harmonic <= 1e-10

    def test_mixed_connection_converges_geometrically(self, grid, mixed_setup):
        omega, pair = mixed_setup
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        assert report.iterations >= 2
        totals = [d.total for d in report.diff_norms]
        assert all(b < a for a, b in zip(totals, totals[1:]))
        assert report.kappa_bar < 0.5
        assert report.residual_l2 <= 1e-6 + pair.diagnostics.harmonic
        assert report.uniqueness_gap <= 1e-7

    def test_rotation_sup_skips_non_positive_determinants(self, coexact_setup,
                                                          monkeypatch):
        # The solve reads its rotation distances through the shared sup rule:
        # points flagged with a non-positive determinant are counted, and the
        # sup is taken over the others.
        omega, pair = coexact_setup
        measured = gauge.rotation_distance

        def fabricated(pointwise):
            dist, _, sigma = measured(pointwise)
            dist = np.arange(dist.size, dtype=float).reshape(dist.shape) / dist.size
            return dist, dist > 0.9, sigma

        monkeypatch.setattr(gauge, "rotation_distance", fabricated)
        _, _, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        dist = np.arange(omega.grid.res ** omega.grid.n) / omega.grid.res ** omega.grid.n
        assert report.negdet_points == int((dist > 0.9).sum()) > 0
        assert report.rotation_distance_sup == dist[dist <= 0.9].max()

    def test_scaling_family_bound_stable(self, grid, mixed_setup):
        # The existence bound's constant should not drift across a rescaled
        # family; the fixed point itself stays inside twice that bound.
        omega, _ = mixed_setup
        ratios = []
        for s in (0.25, 0.5, 1.0):
            scaled = s * omega
            pair = gauge.minimize_gauge(scaled)
            _, _, report = solver.solve_pair(scaled, solver.PicardMap.of(pair))
            size = lorentz.lorentz_norm(scaled, 3.0, 2.0)
            bound = (report.rotation_distance_sup + report.da_n1 + report.db_n2)
            ratios.append(bound / size)
            assert report.iterate_norms[-1].total <= 2.0 * bound + 1e-12
        assert max(ratios) / min(ratios) <= 2.0

    def test_regime_guard_rejects_large_connection(self, grid):
        omega = synth.synthetic_connection(
            grid, 3, np.random.default_rng(13), kmax=2, target_norm=1.5)
        with pytest.raises(solver.SolverError, match="outside contraction regime"):
            solver.solve_pair(omega, solver.PicardMap.of(identity_pair(grid, 3)))

    def test_regime_guard_refuses_a_nan_size(self, coexact_setup):
        # a NaN size fails every comparison, so the guard asks for size < limit
        omega, pair = coexact_setup
        connection = dataclasses.replace(synth.Connection.of(omega), n2=float("nan"))
        with pytest.raises(solver.SolverError, match="outside contraction regime"):
            solver.solve_pair(connection, solver.PicardMap.of(pair), max_iter=3,
                              probe_seed=None)

    def test_connection_carries_its_size(self, grid, coexact_setup, monkeypatch):
        # The guard and the report read the size the connection was built
        # with; a MatrixForm is measured once, on the way in.
        omega, pair = coexact_setup
        connection = synth.Connection.of(omega)
        assert connection.n2 == lorentz.lorentz_norm(omega, 3.0, 2.0)
        assert connection.l2 == forms.l2_norm(omega)
        assert connection.sup == forms.sup_norm(omega)
        assert connection.defect == 0.0
        assert synth.Connection.of(connection) is connection
        pmap = solver.PicardMap.of(pair)
        calls = []
        norm = lorentz.lorentz_norm
        monkeypatch.setattr(lorentz, "lorentz_norm", lambda field, p, q: calls.append(
            (getattr(field, "k", None), q)) or norm(field, p, q))
        _, _, report = solver.solve_pair(connection, pmap, probe_seed=None)
        assert report.omega_n2 == connection.n2
        assert (1, 2.0) not in calls  # da_n1 is the one 1-form size, at q = 1
        assert (1, 1.0) in calls

    def test_regime_guard_boundary_has_a_margin(self, grid, coexact_setup):
        # A limit one ulp above the measured size is still "reached": the
        # verdict at the boundary must not hinge on the last bit of rounding.
        omega, pair = coexact_setup
        size = lorentz.lorentz_norm(omega, 3.0, 2.0)
        pmap = solver.PicardMap.of(pair)
        with pytest.raises(solver.SolverError, match="outside contraction regime"):
            solver.solve_pair(omega, pmap, regime_limit=np.nextafter(size, np.inf))
        _, _, report = solver.solve_pair(
            omega, pmap, regime_limit=size * (1 + 1e-6), probe_seed=None)
        assert report.iterations == 2

    def test_divergence_flag_on_oversized_potential(self, grid):
        # A fabricated gauge pair far outside the small-data regime makes the
        # iteration expand; the loop must flag it instead of running to the cap.
        rng = np.random.default_rng(2)
        skew = synth.random_matrix_form(grid, 0, 3, rng, kmax=1, antisymmetric=True)
        p = MatrixForm(grid, 0, gauge.so_exp(0.8 * skew.coeffs[0])[None])
        alpha = synth.random_matrix_form(grid, 1, 3, rng, kmax=1, antisymmetric=True)
        xi = 1e3 * forms.exterior_derivative(alpha)
        pair = fabricated_pair(p, xi)
        omega = forms.codifferential(xi)
        with pytest.raises(solver.SolverError,
                           match="three consecutive iterations") as info:
            solver.solve_pair(omega, solver.PicardMap.of(pair), regime_limit=np.inf,
                              probe_seed=None, max_iter=40)
        assert len(info.value.trace) >= 3
        assert info.value.trace[-1] > info.value.trace[-3]

    def test_uniqueness_probe_refusal_fires(self, mixed_setup, monkeypatch):
        # A probe that lands on another fixed point refuses the pair, with
        # the main run's differences attached.
        omega, pair = mixed_setup
        iterate = solver._iterate

        def displaced_probe(pmap, state, tol, max_iter, keep_norms=True):
            state, norms, diffs, ratios = iterate(pmap, state, tol, max_iter, keep_norms)
            if not keep_norms:
                state = PairState(state.a._like(state.a.coeffs + 1e-3), state.b)
            return state, norms, diffs, ratios

        monkeypatch.setattr(solver, "_iterate", displaced_probe)
        with pytest.raises(solver.SolverError, match="uniqueness probe failed") as info:
            solver.solve_pair(omega, solver.PicardMap.of(pair))
        assert len(info.value.trace) >= 1

    def test_invertibility_margin_refusal_fires(self, mixed_setup, monkeypatch):
        # A = (id + a) P^T whose smallest singular value falls below
        # 1 - sup|a| is refused.
        omega, pair = mixed_setup
        distance = gauge.rotation_distance

        def shrunk(pointwise):
            dist, negdet, sigma = distance(pointwise)
            return dist, negdet, 0.5 * sigma

        monkeypatch.setattr(gauge, "rotation_distance", shrunk)
        with pytest.raises(solver.SolverError, match="invertibility margin violated") as info:
            solver.solve_pair(omega, solver.PicardMap.of(pair), probe_seed=None)
        assert len(info.value.trace) >= 1

    def test_max_iter_carries_trace(self, grid, mixed_setup):
        omega, pair = mixed_setup
        with pytest.raises(solver.SolverError, match="not reached in 2") as info:
            solver.solve_pair(omega, solver.PicardMap.of(pair), tol=1e-30, max_iter=2,
                              probe_seed=None)
        assert len(info.value.trace) == 2

    def test_probe_can_be_disabled(self, grid, coexact_setup):
        omega, pair = coexact_setup
        _, _, report = solver.solve_pair(omega, solver.PicardMap.of(pair), probe_seed=None)
        assert report.uniqueness_gap is None

    def test_probe_takes_no_iterate_norms(self, grid, coexact_setup, monkeypatch):
        # The report keeps only the main run's iterate norms, so the probe
        # measures its start, its differences and its gap to the main point.
        # Every state norm is a state_norm or a _difference_norm.
        omega, pair = coexact_setup
        iterate = solver._iterate
        norms, steps = [], []

        def counting(fn):
            def counted(x, y):
                norms.append(x)
                return fn(x, y)
            return counted

        def recorded(*args, **kwargs):
            result = iterate(*args, **kwargs)
            steps.append(len(result[2]))
            return result

        for name in ("state_norm", "_difference_norm"):
            monkeypatch.setattr(solver, name, counting(getattr(solver, name)))
        monkeypatch.setattr(solver, "_iterate", recorded)
        _, _, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        main, probe = steps
        assert main == report.iterations and probe >= 1
        assert len(report.iterate_norms) == main + 1
        assert len(norms) == 2 * main + probe + 3

    def test_report_reuses_the_solve_derivatives(self, grid, mixed_setup, monkeypatch):
        # The residual and da_n1 share one dA, and db_n2 and sup_a are the
        # last iterate norm's: one gradient per block and one sup per state
        # norm and no more, beside the pair residual's one sup.
        omega, pair = mixed_setup
        # converted before counting: the conversion's own sup is not the solve's
        omega = synth.Connection.of(omega)
        d, grad, sup = forms.exterior_derivative, solver._gradient_size, forms.sup_norm
        zero_forms, gradients, sups = [], [], []

        def counted_d(form):
            if form.k == 0:
                zero_forms.append(form)
            return d(form)

        def counted_grad(components, grid):
            gradients.append(components)
            return grad(components, grid)

        def counted_sup(form):
            sups.append(form)
            return sup(form)

        monkeypatch.setattr(forms, "exterior_derivative", counted_d)
        monkeypatch.setattr(solver, "_gradient_size", counted_grad)
        monkeypatch.setattr(forms, "sup_norm", counted_sup)
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair), probe_seed=None)
        assert sum(form is A for form in zero_forms) == 1
        assert len(gradients) == 2 * (1 + 2 * report.iterations)
        assert sum(form.k == 0 for form in sups) == 1 + 2 * report.iterations
        assert [form.k for form in sups if form.k] == [1]
        assert report.db_n2 == solver.gradient_norm(B)
        assert report.da_n1 == lorentz.lorentz_norm(d(A), 3.0, 1.0)

    def test_working_set(self, grid, mixed_setup, transient_peak):
        # The map and the connection are the caller's, as the pipeline holds
        # them, the probe's start goes after its first step and its fixed
        # point after the gap, and the residual is built in one array, so
        # the peak above them is both runs' states and one step: within 6.2
        # 2-forms (6.5 before the connection was held as so(m) channels and
        # the transported current expanded d(star xi) into its own slots,
        # 8.45 with the map built inside and the residual's three terms held
        # whole, twelve before).
        omega, pair = mixed_setup
        peak = transient_peak(solver.solve_pair, synth.Connection.of(omega),
                              solver.PicardMap.of(pair))
        assert peak <= 6.2 * MatrixForm.zeros(grid, 2, 3).coeffs.nbytes

    def test_two_dimensions(self):
        # Riviere's base case: the 2-form block is top degree.  The pair
        # residual is the torus obstruction -mean(A Omega), about the size
        # of the gauge's harmonic part.
        grid = Grid(2, 16)
        omega = synth.synthetic_connection(
            grid, 3, np.random.default_rng(5), kmax=2, exact_frac=0.5, target_norm=0.3)
        pair = gauge.minimize_gauge(omega, tol=1e-5)
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        assert B.k == 2 == grid.n
        assert report.iterations == 5
        assert report.kappa_bar == pytest.approx(1.59e-2, rel=1e-2)
        assert report.residual_l2 == pytest.approx(4.2166e-4, rel=1e-4)
        assert report.residual_l2 <= pair.diagnostics.harmonic
        assert report.uniqueness_gap <= 1e-10


class TestSourceMeanCheck:
    """The wiring check fires on a source mean just above MEAN_TOL x its size."""

    @pytest.mark.parametrize("factor, fires", [(1.001, True), (0.999, False)])
    def test_threshold(self, grid, factor, fires):
        coeffs = 100.0 * np.random.default_rng(3).standard_normal((3,) + grid.shape + (3, 3))
        base = MatrixForm(grid, 2, coeffs - coeffs.mean(axis=(1, 2, 3), keepdims=True))
        shifted = base.coeffs.copy()
        shifted[1, ..., 0, 2] += factor * solver.MEAN_TOL * forms.l2_norm(base)
        src = MatrixForm(grid, 2, shifted)
        assert forms.l2_norm(src) == pytest.approx(forms.l2_norm(base), rel=1e-12)
        if fires:
            with pytest.raises(RuntimeError, match="exactness identity broken: 2-form"):
                solver._check_source_mean(src, "2-form")
        else:
            solver._check_source_mean(src, "2-form")

    def test_a_nan_source_fires(self, grid):
        coeffs = np.zeros((1,) + grid.shape + (3, 3))
        coeffs[0, 1, 2, 3, 0, 1] = np.nan
        with pytest.raises(RuntimeError, match="exactness identity broken: 0-form"):
            solver._check_source_mean(MatrixForm(grid, 0, coeffs), "0-form")


class TestPairResidual:
    @pytest.mark.parametrize("n, res", [(2, 16), (3, 8), (4, 8)])
    def test_one_array_matches_the_expression(self, n, res):
        # dA_c - A Omega_c, then + (d*B)_c one component at a time: the
        # order of dA - A Omega + d*B, so both norms agree to the bit.
        grid = Grid(n, res)
        rng = np.random.default_rng(40 + n)
        A = synth.random_matrix_form(grid, 0, 3, rng, kmax=2, antisymmetric=False)
        B = synth.random_matrix_form(grid, 2, 3, rng, kmax=2)
        omega = synth.random_matrix_form(grid, 1, 3, rng, kmax=2, antisymmetric=True)
        dA = forms.exterior_derivative(A)
        r = dA - omega._like(A.coeffs[0] @ omega.coeffs) + forms.codifferential(B)
        l2, sup = solver._residual_norms(dA, A, B, synth.Connection.of(omega))
        assert l2 == forms.l2_norm(r)
        assert sup == float(forms.pointwise_norm(r).max())
        assert (l2, sup) == solver.pair_residual(A, B, omega)

    def test_working_set(self, grid, transient_peak):
        # One residual array plus d*B's component, work and product arrays:
        # within two and a quarter 2-forms (3.0 with A Omega, their
        # difference and d*B held whole).
        rng = np.random.default_rng(8)
        A = synth.random_matrix_form(grid, 0, 3, rng, kmax=2, antisymmetric=False)
        B = synth.random_matrix_form(grid, 2, 3, rng, kmax=2)
        omega = synth.random_matrix_form(grid, 1, 3, rng, kmax=2, antisymmetric=True)
        dA = forms.exterior_derivative(A)
        peak = transient_peak(solver._residual_norms, dA, A, B, synth.Connection.of(omega))
        assert peak <= 2.25 * B.coeffs.nbytes

    def test_identity_pair_zero_connection(self, grid):
        shape = (1,) + (grid.res,) * grid.n + (3, 3)
        A = MatrixForm(grid, 0, np.broadcast_to(np.eye(3), shape).copy())
        l2, sup = solver.pair_residual(
            A, MatrixForm.zeros(grid, 2, 3), MatrixForm.zeros(grid, 1, 3))
        assert l2 == 0.0 and sup == 0.0

    def test_degree_guard(self, grid):
        zero0 = MatrixForm.zeros(grid, 0, 3)
        zero1 = MatrixForm.zeros(grid, 1, 3)
        zero2 = MatrixForm.zeros(grid, 2, 3)
        with pytest.raises(ValueError, match="0-form, a 2-form and a 1-form"):
            solver.pair_residual(zero1, zero2, zero1)
        with pytest.raises(ValueError, match="0-form, a 2-form and a 1-form"):
            solver.pair_residual(zero0, zero2, zero2)

    def test_linear_response_to_scalar_perturbation(self, grid, coexact_setup):
        # Residual at the fixed point is ~0, so perturbing A by delta leaves
        # exactly the linear response d(delta) - delta Omega.
        omega, pair = coexact_setup
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair))
        delta = 1e-3 * synth.random_matrix_form(grid, 0, 3, np.random.default_rng(6), 2)
        perturbed, _ = solver.pair_residual(A + delta, B, omega)
        product = MatrixForm(grid, 1, np.einsum(
            "...ij,c...jk->c...ik", delta.coeffs[0], omega.coeffs))
        expected = forms.l2_norm(forms.exterior_derivative(delta) - product)
        assert perturbed == pytest.approx(expected, rel=1e-6)
        assert perturbed > 1e3 * report.residual_l2
