"""Spectral exterior calculus: analytic oracles first, then structural laws."""

import collections
import importlib
import inspect
import re
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gaugeflow import connection, forms, gauge, lorentz, maps, solver, synth, verify
from gaugeflow.forms import (
    Grid,
    MatrixForm,
    SkewForm,
    VectorForm,
    codifferential,
    components,
    exterior_derivative,
    harmonic_part,
    hodge_star,
    inner,
    l2_norm,
    laplacian,
    pointwise_norm,
    project_closed,
    solve_poisson,
    sup_norm,
    wedge,
)


def scalar_form(grid, k, comp_values):
    """Build an m=1 MatrixForm from {component index: scalar field} entries."""
    ncomp = len(components(grid.n, k))
    coeffs = np.zeros((ncomp,) + grid.shape + (1, 1))
    for idx, field in comp_values.items():
        coeffs[idx, ..., 0, 0] = field
    return MatrixForm(grid, k, coeffs)


def identity_form(grid, m):
    """The identity-matrix 0-form."""
    return MatrixForm(grid, 0, np.broadcast_to(np.eye(m), (1,) + grid.shape + (m, m)).copy())


class TestGrid:
    def test_basic_properties(self):
        g = Grid(3, 16)
        assert g.h == 1 / 16
        assert g.shape == (16, 16, 16)
        assert g.cell == pytest.approx(16.0 ** -3)
        x = g.coords()
        assert x.shape == (3, 16, 16, 16)
        assert x.min() == 0.0 and x.max() == 15 / 16

    @pytest.mark.parametrize("n,res", [(1, 16), (5, 16), (3, 7), (3, 9), (3, 6), (4, 256)])
    def test_rejects_bad_parameters(self, n, res):
        with pytest.raises(ValueError):
            Grid(n, res)


class TestConstruction:
    def test_shape_validation(self):
        g = Grid(2, 8)
        with pytest.raises(ValueError):
            MatrixForm(g, 1, np.zeros((3,) + g.shape + (2, 2)))
        with pytest.raises(ValueError):
            MatrixForm(g, 0, np.zeros((1,) + g.shape + (2, 3)))
        with pytest.raises(ValueError):
            MatrixForm(g, 3, np.zeros((1,) + g.shape + (2, 2)))

    def test_coefficients_frozen(self):
        f = MatrixForm.zeros(Grid(2, 8), 1, 2)
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_identity_and_zeros(self):
        g = Grid(2, 8)
        e = identity_form(g, 3)
        assert e.k == 0 and e.m == 3
        assert np.array_equal(e.coeffs[0, 0, 0], np.eye(3))
        assert l2_norm(VectorForm.zeros(g, 1, 2)) == 0.0

    def test_algebra_guards(self):
        g = Grid(2, 8)
        a = MatrixForm.zeros(g, 1, 2)
        with pytest.raises(ValueError):
            a + MatrixForm.zeros(g, 2, 2)
        with pytest.raises(ValueError):
            a + VectorForm.zeros(g, 1, 2)


class TestExteriorDerivative:
    def test_sine_oracle(self):
        # d sin(2 pi x1) = 2 pi cos(2 pi x1) dx1, exact for the interpolant
        g = Grid(2, 16)
        x = g.coords()
        f = scalar_form(g, 0, {0: np.sin(2 * np.pi * x[0])})
        df = exterior_derivative(f)
        want = 2 * np.pi * np.cos(2 * np.pi * x[0])
        assert np.abs(df.coeffs[0, ..., 0, 0] - want).max() < 1e-12
        assert np.abs(df.coeffs[1]).max() < 1e-12

    def test_constant_matrix_form(self):
        g = Grid(3, 8)
        c = MatrixForm(g, 0, np.broadcast_to(np.eye(2), (1,) + g.shape + (2, 2)).copy())
        assert l2_norm(exterior_derivative(c)) < 1e-14

    def test_constant_coefficient_one_form(self):
        g = Grid(2, 8)
        w = scalar_form(g, 1, {0: np.ones(g.shape)})
        assert l2_norm(exterior_derivative(w)) < 1e-14

    def test_top_degree_rejected(self):
        g = Grid(2, 8)
        with pytest.raises(ValueError, match="top-degree"):
            exterior_derivative(MatrixForm.zeros(g, 2, 2))

    def test_partial_derivative_eigenfunction(self):
        # component 1 of df is d/dx1 f
        g = Grid(2, 16)
        x = g.coords()
        f = scalar_form(g, 0, {0: np.cos(2 * np.pi * 3 * x[1])})
        dfy = exterior_derivative(f).coeffs[1]
        want = -6 * np.pi * np.sin(6 * np.pi * x[1])
        assert np.abs(dfy[..., 0, 0] - want).max() < 1e-11


class TestCodifferential:
    def test_minus_divergence_oracle(self):
        # n=2: d*(sin(2 pi x1) dx1) = -2 pi cos(2 pi x1)
        g = Grid(2, 16)
        x = g.coords()
        w = scalar_form(g, 1, {0: np.sin(2 * np.pi * x[0])})
        dw = codifferential(w)
        want = -2 * np.pi * np.cos(2 * np.pi * x[0])
        assert np.abs(dw.coeffs[0, ..., 0, 0] - want).max() < 1e-12

    def test_constant_coefficients(self):
        g = Grid(3, 8)
        w = scalar_form(g, 2, {i: np.ones(g.shape) for i in range(3)})
        assert l2_norm(codifferential(w)) < 1e-14

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError, match="0-form"):
            codifferential(MatrixForm.zeros(Grid(2, 8), 0, 1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hodge_laplacian_matches_componentwise(self, n, rng):
        # (d d* + d* d) w = -laplacian(w) componentwise on the flat torus
        g = Grid(n, 8)
        w = synth.random_matrix_form(g, 1, 2, rng, kmax=2)
        hodge = exterior_derivative(codifferential(w)) + codifferential(exterior_derivative(w))
        diff = hodge + laplacian(w)
        assert l2_norm(diff) < 1e-10 * l2_norm(laplacian(w))


class TestHodgeStar:
    def test_three_dim_basis(self):
        g = Grid(3, 8)
        w = scalar_form(g, 1, {0: np.ones(g.shape)})
        sw = hodge_star(w)
        # *dx0 = dx1 ^ dx2 in the lexicographic component order (01, 02, 12)
        assert np.array_equal(sw.coeffs[2], w.coeffs[0])
        assert np.abs(sw.coeffs[[0, 1]]).max() == 0.0

    def test_four_dim_pair(self):
        g = Grid(4, 8)
        idx = components(4, 2).index((0, 1))
        w = scalar_form(g, 2, {idx: np.ones(g.shape)})
        sw = hodge_star(w)
        out = components(4, 2).index((2, 3))
        assert np.array_equal(sw.coeffs[out], w.coeffs[idx])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_double_star_sign(self, n, rng):
        g = Grid(n, 8)
        for k in range(n + 1):
            w = synth.random_matrix_form(g, k, 2, rng, kmax=2)
            ss = hodge_star(hodge_star(w))
            sign = (-1) ** (k * (n - k))
            assert np.array_equal(ss.coeffs, sign * w.coeffs)


class TestWedge:
    def test_parallel_components_cancel(self):
        g = Grid(2, 8)
        M = np.arange(4.0).reshape(2, 2)
        N = np.arange(4.0, 8.0).reshape(2, 2)
        a = MatrixForm(g, 1, np.stack([np.broadcast_to(M, g.shape + (2, 2)),
                                       np.zeros(g.shape + (2, 2))]))
        b = MatrixForm(g, 1, np.stack([np.broadcast_to(N, g.shape + (2, 2)),
                                       np.zeros(g.shape + (2, 2))]))
        assert l2_norm(wedge(a, b)) == 0.0

    def test_matrix_order_and_swap_sign(self):
        g = Grid(2, 8)
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        N = np.array([[0.0, 1.0], [-1.0, 2.0]])
        a = MatrixForm(g, 1, np.stack([np.broadcast_to(M, g.shape + (2, 2)),
                                       np.zeros(g.shape + (2, 2))]))
        b = MatrixForm(g, 1, np.stack([np.zeros(g.shape + (2, 2)),
                                       np.broadcast_to(N, g.shape + (2, 2))]))
        ab = wedge(a, b)
        ba = wedge(b, a)
        assert np.allclose(ab.coeffs[0, 0, 0], M @ N)
        assert np.allclose(ba.coeffs[0, 0, 0], -(N @ M))

    def test_scalar_graded_commutativity(self, rng):
        # commuting values reduce the wedge to a ^ b = (-1)^(ka kb) b ^ a
        g = Grid(3, 8)
        for ka, kb in [(1, 1), (1, 2), (2, 1)]:
            a = synth.random_matrix_form(g, ka, 1, rng, kmax=2)
            b = synth.random_matrix_form(g, kb, 1, rng, kmax=2)
            lhs = wedge(a, b)
            rhs = wedge(b, a) * ((-1.0) ** (ka * kb))
            assert l2_norm(lhs - rhs) < 1e-12 * max(l2_norm(lhs), 1e-30)

    def test_degree_and_size_guards(self, rng):
        g = Grid(2, 8)
        a = synth.random_matrix_form(g, 1, 2, rng, kmax=2)
        with pytest.raises(ValueError, match="degree"):
            wedge(a, synth.random_matrix_form(g, 2, 2, rng, kmax=2))
        with pytest.raises(ValueError, match="size"):
            wedge(a, synth.random_matrix_form(g, 1, 3, rng, kmax=2))

    def test_identity_acts_trivially_on_vectors(self, rng, random_vector_form):
        g = Grid(3, 8)
        v = random_vector_form(g, 1, 3, rng, kmax=2)
        out = wedge(identity_form(g, 3), v)
        assert np.allclose(out.coeffs, v.coeffs, atol=1e-14)

    def test_constant_rotation_commutes_with_d(self, rng, random_vector_form):
        g = Grid(2, 16)
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rot = MatrixForm(g, 0, np.broadcast_to(R, (1,) + g.shape + (2, 2)).copy())
        u = random_vector_form(g, 0, 2, rng, kmax=3)
        du = exterior_derivative(u)
        lhs = exterior_derivative(wedge(rot, u))
        rhs = wedge(rot, du)
        assert l2_norm(lhs - rhs) < 1e-10 * l2_norm(rhs)

    def test_zero_two_form_annihilates(self, rng, random_vector_form):
        g = Grid(3, 8)
        du = exterior_derivative(random_vector_form(g, 0, 3, rng, kmax=2))
        out = wedge(hodge_star(MatrixForm.zeros(g, 2, 3)), du)
        assert l2_norm(out) == 0.0

    @pytest.mark.parametrize("values", ["matrix", "vector"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_matches_the_per_term_formula(self, n, values):
        # sum of sign * (a_I b_J) over the table, for every degree pair; a
        # sum into zeros of the same products is matched bit for bit, signs
        # of zero entries included
        g = Grid(n, 8)
        rng = np.random.default_rng(n)
        vshape = (3, 3) if values == "matrix" else (3,)
        cls = MatrixForm if values == "matrix" else VectorForm
        spec = "...ij,...jk->...ik" if values == "matrix" else "...ij,...j->...i"
        for p in range(n + 1):
            for q in range(n + 1 - p):
                a_coeffs = rng.standard_normal((len(components(n, p)),) + g.shape + (3, 3))
                a_coeffs[..., 0, :] = -0.0
                a = MatrixForm(g, p, a_coeffs)
                b = cls(g, q, rng.standard_normal((len(components(n, q)),) + g.shape + vshape))
                nout = len(components(n, p + q))
                formula = np.zeros((nout,) + b.coeffs.shape[1:])
                summed = np.zeros_like(formula)
                for ia, ib, io, sign in forms._wedge_table(n, p, q):
                    formula[io] += sign * np.einsum(spec, a.coeffs[ia], b.coeffs[ib])
                    product = (np.matmul(a.coeffs[ia], b.coeffs[ib]) if values == "matrix"
                               else np.einsum(spec, a.coeffs[ia], b.coeffs[ib]))
                    if sign > 0:
                        summed[io] += product
                    else:
                        summed[io] -= product
                got = forms._wedge_coeffs(a, b)
                assert np.abs(got - formula).max() <= 1e-14 * np.abs(formula).max()
                assert np.array_equal(got.view(np.uint64), summed.view(np.uint64))


    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_schedule_keeps_the_table_order(self, n):
        # right components last to first still meet each output's terms in
        # the table's order, and the first one met starts its output
        for p in range(n + 1):
            for q in range(n + 1 - p):
                met = {}
                for ib, terms in forms._wedge_schedule(n, p, q):
                    for ia, io, sign, first in terms:
                        assert first == (io not in met)
                        met.setdefault(io, []).append((ia, ib, sign))
                table = {}
                for ia, ib, io, sign in forms._wedge_table(n, p, q):
                    table.setdefault(io, []).append((ia, ib, sign))
                assert met == table


class TestPoisson:
    def test_eigenfunction_oracle(self):
        g = Grid(2, 16)
        x = g.coords()
        rho = scalar_form(g, 0, {0: np.sin(2 * np.pi * x[0])})
        phi = solve_poisson(rho)
        assert np.allclose(phi.coeffs, rho.coeffs / (4 * np.pi ** 2), atol=1e-14)

    def test_zero_input(self):
        phi = solve_poisson(MatrixForm.zeros(Grid(2, 8), 1, 2))
        assert l2_norm(phi) == 0.0

    def test_round_trip(self, rng):
        g = Grid(3, 16)
        rho = synth.random_matrix_form(g, 1, 2, rng, kmax=3)
        phi = solve_poisson(rho)
        back = -1.0 * laplacian(phi)
        assert l2_norm(back - rho) < 1e-10 * l2_norm(rho)
        # and the inverse direction on a zero-mean potential
        again = solve_poisson(-1.0 * laplacian(phi))
        assert l2_norm(again - phi) < 1e-10 * l2_norm(phi)


class TestProjectClosed:
    def test_closed_inputs_fixed(self, rng):
        g = Grid(3, 16)
        gamma = synth.random_matrix_form(g, 1, 2, rng, kmax=3)
        b = exterior_derivative(gamma)
        pb = project_closed(b)
        assert l2_norm(pb - b) < 1e-10 * l2_norm(b)

    def test_removes_coexact_part(self, rng):
        # a purely coexact 2-form projects to (numerically) nothing
        g = Grid(3, 16)
        psi = synth.random_matrix_form(g, 3, 2, rng, kmax=3)
        b = codifferential(psi)
        assert l2_norm(project_closed(b)) < 1e-10 * l2_norm(b)

    def test_output_closed_and_idempotent(self, rng):
        g = Grid(3, 16)
        b = synth.random_matrix_form(g, 2, 2, rng, kmax=3)
        pb = project_closed(b)
        assert l2_norm(exterior_derivative(pb)) < 1e-10 * l2_norm(exterior_derivative(b))
        assert l2_norm(project_closed(pb) - pb) < 1e-10 * l2_norm(b)

    def test_zero_and_degree_guard(self):
        g = Grid(2, 8)
        assert l2_norm(project_closed(MatrixForm.zeros(g, 1, 2))) == 0.0
        with pytest.raises(ValueError):
            project_closed(MatrixForm.zeros(g, 0, 2))

    def test_top_degree_form_is_its_own_projection(self, rng):
        # a top-degree form is closed by degree
        for n in (2, 3):
            top = synth.random_matrix_form(Grid(n, 8), n, 2, rng, kmax=2)
            assert project_closed(top) is top

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_in_place_matches_the_composition(self, n):
        # b -= d* (-lap)^-1 d b, one component at a time in b's own array,
        # against b - d*(solve(d b)) with the image held whole: x - y is
        # bitwise x + (-y), so no bit moves, n = 2 included
        grid = Grid(n, 8)
        rng = np.random.default_rng(n)
        for k in range(1, n):
            form = synth.random_matrix_form(grid, k, 2, rng, kmax=2)
            want = form.coeffs - codifferential(solve_poisson(exterior_derivative(form))).coeffs
            got = form.coeffs.copy()
            forms._project_closed_in_place(got, n, k, grid.res)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(project_closed(form).coeffs.view(np.uint64),
                                  want.view(np.uint64))


def _bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


class TestSkewForm:
    """so(m) channels: the strictly upper entries of exactly antisymmetric values."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_expansion_is_the_original(self, n, m):
        grid = Grid(n, 8)
        rng = np.random.default_rng(10 * n + m)
        for k in range(n + 1):
            form = synth.random_matrix_form(grid, k, m, rng, kmax=2, antisymmetric=True)
            skew = SkewForm.of(form)
            assert skew.defect == 0.0
            assert skew.upper.shape == form.coeffs.shape[:-2] + (m * (m - 1) // 2,)
            assert skew.shape == form.coeffs.shape
            assert np.array_equal(_bits(skew.expanded().coeffs), _bits(form.coeffs))
            buffer = np.full(grid.shape + (m, m), np.nan)
            for comp in range(len(components(n, k))):
                skew.expand_into(comp, buffer)
                assert np.array_equal(_bits(buffer), _bits(form.coeffs[comp]))

    def test_zeros_round_trip(self):
        zero = MatrixForm.zeros(Grid(3, 8), 1, 3)
        assert np.array_equal(_bits(SkewForm.of(zero).expanded().coeffs), _bits(zero.coeffs))

    def test_upper_entries_in_row_major_order(self):
        values = np.array([[0.0, 1.0, 2.0, 3.0], [-1.0, 0.0, 4.0, 5.0],
                           [-2.0, -4.0, 0.0, 6.0], [-3.0, -5.0, -6.0, 0.0]])
        grid = Grid(2, 8)
        form = MatrixForm(grid, 0, np.broadcast_to(values, (1,) + grid.shape + (4, 4)).copy())
        assert np.array_equal(SkewForm.of(form).upper[0, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_refuses_a_nonzero_defect(self, rng):
        form = synth.random_matrix_form(Grid(3, 8), 1, 3, rng, kmax=2, antisymmetric=True)
        coeffs = form.coeffs.copy()
        coeffs[1, 2, 3, 4, 2, 0] = np.nextafter(coeffs[1, 2, 3, 4, 2, 0], np.inf)
        with pytest.raises(ValueError, match="not exactly antisymmetric"):
            SkewForm.of(MatrixForm(form.grid, 1, coeffs))
        with pytest.raises(ValueError, match="not exactly antisymmetric"):
            SkewForm.of(identity_form(form.grid, 3))
        with pytest.raises(ValueError, match="matrix values"):
            SkewForm.of(VectorForm.zeros(form.grid, 1, 3))

    def test_a_skew_form_is_refused(self, rng):
        # only a MatrixForm is converted; a Connection keeps its own `of`
        skew = SkewForm.of(synth.random_matrix_form(Grid(2, 8), 1, 3, rng, kmax=2,
                                                    antisymmetric=True))
        with pytest.raises(ValueError, match="matrix values"):
            SkewForm.of(skew)
        assert not skew.upper.flags.writeable

    def test_a_nan_entry_is_recorded(self, rng):
        form = synth.random_matrix_form(Grid(3, 8), 1, 3, rng, kmax=2, antisymmetric=True)
        coeffs = form.coeffs.copy()
        coeffs[1, 2, 3, 4, 0, 1] = np.nan
        assert np.isnan(SkewForm.of(MatrixForm(form.grid, 1, coeffs)).defect)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_wedge_reads_the_expansion(self, n):
        # the scalar wedge of a step, da ^ d(star xi), with a skew right factor
        grid = Grid(n, 8)
        rng = np.random.default_rng(n)
        a = synth.random_matrix_form(grid, 1, 3, rng, kmax=2)
        b = synth.random_matrix_form(grid, n - 1, 3, rng, kmax=2, antisymmetric=True)
        want = forms._wedge_coeffs(a, b)
        assert np.array_equal(_bits(forms._wedge_coeffs(a, SkewForm.of(b))), _bits(want))



class TestPartials:
    """A 0-form's first partials, taken one at a time where a wedge reads them."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partials_are_the_exterior_derivative(self, n):
        grid = Grid(n, 8)
        form = synth.random_matrix_form(grid, 0, 3, np.random.default_rng(n), kmax=2)
        values = form.coeffs[0]
        work = np.empty(values.shape)
        source = forms._Partials(grid, values, work)
        # the derivative acts entrywise, so the partials of the transpose
        # are the transposed partials
        transposed = forms._Partials(
            grid, np.ascontiguousarray(np.swapaxes(values, -1, -2)), work)
        d = exterior_derivative(form).coeffs
        assert source.shape == d.shape
        out = np.full(values.shape, np.nan)
        for c in range(n):
            assert source.expand_into(c, out) is out
            assert np.array_equal(_bits(out), _bits(d[c]))
            want = np.ascontiguousarray(np.swapaxes(d[c], -1, -2))
            assert np.array_equal(_bits(transposed.expand_into(c, out)), _bits(want))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_wedge_reads_the_partials(self, n):
        # the rotation wedges of a step, d(star b) ^ dP and da ^ dP
        grid = Grid(n, 8)
        rng = np.random.default_rng(n)
        rotation = synth.random_matrix_form(grid, 0, 3, rng, kmax=2)
        values = rotation.coeffs[0]
        d = exterior_derivative(rotation)
        right, work, prod = (np.empty(values.shape) for _ in range(3))
        for p in (1, n - 1):
            a = synth.random_matrix_form(grid, p, 3, rng, kmax=2)
            got = forms._wedge_coeffs(a, forms._Partials(grid, values, work), right, prod)
            assert np.array_equal(_bits(got), _bits(forms._wedge_coeffs(a, d)))


class TestAntisymmetryDefect:
    """The largest entry of c + c^T, one component at a time."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_whole_form_expression(self, n):
        grid = Grid(n, 8)
        rng = np.random.default_rng(n)
        for k in range(n + 1):
            for antisymmetric in (False, True):
                form = synth.random_matrix_form(grid, k, 3, rng, kmax=2,
                                                antisymmetric=antisymmetric)
                want = float(np.abs(form.coeffs + np.swapaxes(form.coeffs, -1, -2)).max())
                assert np.array_equal(_bits(np.float64(form.antisymmetry_defect())),
                                      _bits(np.float64(want)))

    def test_a_nan_entry_gives_nan(self, rng):
        form = synth.random_matrix_form(Grid(3, 8), 1, 3, rng, kmax=2, antisymmetric=True)
        for comp in range(3):
            coeffs = form.coeffs.copy()
            coeffs[comp, 1, 2, 3, 0, 1] = np.nan
            assert np.isnan(MatrixForm(form.grid, 1, coeffs).antisymmetry_defect())

    def test_working_set_is_one_component(self, transient_peak):
        # one component's buffer plus the 64 KiB that numpy's add keeps for a
        # transposed operand; the whole-form sum and its abs were six
        form = synth.random_matrix_form(Grid(3, 16), 2, 3, np.random.default_rng(3), kmax=2)
        peak = transient_peak(MatrixForm.antisymmetry_defect, form)
        assert peak <= 1.25 * form.coeffs[0].nbytes


class TestStructuralLaws:
    @given(n=st.integers(2, 3), k=st.integers(0, 2), m=st.integers(1, 2),
           seed=st.integers(0, 10 ** 6))
    def test_dd_is_zero(self, n, k, m, seed):
        if k + 2 > n:
            return
        g = Grid(n, 8)
        w = synth.random_matrix_form(g, k, m, np.random.default_rng(seed), kmax=2)
        dd = exterior_derivative(exterior_derivative(w))
        assert l2_norm(dd) <= 1e-10 * l2_norm(w) * g.res ** 2

    @given(n=st.integers(2, 3), k=st.integers(1, 3), m=st.integers(1, 2),
           seed=st.integers(0, 10 ** 6))
    def test_adjointness(self, n, k, m, seed):
        if k > n:
            return
        g = Grid(n, 8)
        r = np.random.default_rng(seed)
        alpha = synth.random_matrix_form(g, k - 1, m, r, kmax=2)
        beta = synth.random_matrix_form(g, k, m, r, kmax=2)
        lhs = inner(exterior_derivative(alpha), beta)
        rhs = inner(alpha, codifferential(beta))
        scale = l2_norm(alpha) * l2_norm(beta) + 1e-30
        assert abs(lhs - rhs) <= 1e-8 * scale

    def test_adjointness_four_dims(self, rng):
        g = Grid(4, 8)
        for k in range(1, 5):
            alpha = synth.random_matrix_form(g, k - 1, 2, rng, kmax=2)
            beta = synth.random_matrix_form(g, k, 2, rng, kmax=2)
            lhs = inner(exterior_derivative(alpha), beta)
            rhs = inner(alpha, codifferential(beta))
            assert abs(lhs - rhs) <= 1e-8 * (l2_norm(alpha) * l2_norm(beta))

    @pytest.mark.parametrize("ka,kb", [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)])
    def test_leibniz(self, ka, kb, rng):
        # product band 2*kmax stays below Nyquist so the rule is exact
        g = Grid(3, 16)
        if ka + kb + 1 > g.n:
            pytest.skip("degree overflow")
        a = synth.random_matrix_form(g, ka, 2, rng, kmax=3)
        b = synth.random_matrix_form(g, kb, 2, rng, kmax=3)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b) + wedge(a, exterior_derivative(b)) * ((-1.0) ** ka)
        assert l2_norm(lhs - rhs) <= 1e-8 * (l2_norm(lhs) + l2_norm(rhs) + 1e-30)


class TestNormsAndParts:
    def test_inner_volume_normalization(self):
        g = Grid(2, 8)
        w = scalar_form(g, 1, {0: np.ones(g.shape)})
        assert inner(w, w) == pytest.approx(1.0)
        assert inner(w, w) >= 0.0

    def test_inner_shape_mismatch(self, rng):
        g = Grid(2, 8)
        a = synth.random_matrix_form(g, 1, 2, rng, kmax=2)
        b = synth.random_matrix_form(g, 2, 2, rng, kmax=2)
        with pytest.raises(ValueError):
            inner(a, b)

    def test_harmonic_part_extracts_constants(self, rng):
        g = Grid(2, 16)
        w = synth.random_matrix_form(g, 1, 2, rng, kmax=3)
        c = np.zeros_like(w.coeffs)
        c[0, ..., 0, 1] = 0.75
        shifted = MatrixForm(g, 1, w.coeffs - w.coeffs.mean(axis=(1, 2), keepdims=True) + c)
        hp = harmonic_part(shifted)
        assert np.allclose(hp.coeffs, c, atol=1e-12)

    def test_pointwise_and_sup_norm(self):
        g = Grid(2, 8)
        coeffs = np.zeros((2,) + g.shape + (1, 1))
        coeffs[0, 3, 4, 0, 0] = 3.0
        coeffs[1, 3, 4, 0, 0] = 4.0
        w = MatrixForm(g, 1, coeffs)
        assert pointwise_norm(w)[3, 4] == pytest.approx(5.0)
        assert sup_norm(w) == pytest.approx(5.0)

    def test_value_transpose(self, rng):
        # the antisymmetry defect is the largest entry of w plus its value
        # transpose, the swap of the two value axes
        g = Grid(2, 8)
        w = synth.random_matrix_form(g, 1, 3, rng, kmax=2)
        want = np.abs(w.coeffs + np.swapaxes(w.coeffs, -1, -2)).max()
        assert w.antisymmetry_defect() == want > 0.0
        skew = synth.random_matrix_form(g, 1, 3, rng, kmax=2, antisymmetric=True)
        assert skew.antisymmetry_defect() == 0.0

    def test_value_transpose_commutes_with_d(self, rng):
        # d acts per matrix entry, so d(P^T) is dP with its values transposed.
        g = Grid(3, 8)
        s = synth.random_matrix_form(g, 0, 3, rng, kmax=2, antisymmetric=True)
        p = MatrixForm(g, 0, gauge.so_exp(s.coeffs[0])[None])
        direct = exterior_derivative(MatrixForm(g, 0, np.swapaxes(p.coeffs, -1, -2)))
        assert np.abs(np.swapaxes(exterior_derivative(p).coeffs, -1, -2)
                      - direct.coeffs).max() <= 1e-14


# Reference: the per-axis complex-FFT calculus, an oracle apart from the
# real matmul kernel.  Every derivative is a 1-D fft/ifft pair over the full
# spectrum; symbols are built on the full grid with the Nyquist bin zeroed.
def _ref_wavenumbers(res):
    k = np.fft.fftfreq(res, d=1.0 / res)
    k[res // 2] = 0.0
    return k


def _ref_axis_derivative(arr, axis, res):
    shape = [1] * arr.ndim
    shape[axis] = res
    sym = (2j * np.pi * _ref_wavenumbers(res)).reshape(shape)
    return np.fft.ifft(np.fft.fft(arr, axis=axis) * sym, axis=axis).real


def _ref_laplace_symbol(form):
    n, res = form.grid.n, form.grid.res
    k2 = (2.0 * np.pi * _ref_wavenumbers(res)) ** 2
    sym = np.zeros((res,) * n)
    for ax in range(n):
        shape = [1] * n
        shape[ax] = res
        sym = sym + k2.reshape(shape)
    return sym.reshape((1,) + sym.shape + (1,) * form._value_ndim)


def _ref_spectral(form, apply):
    axes = tuple(range(1, form.grid.n + 1))
    spec = np.fft.fftn(form.coeffs, axes=axes)
    return np.fft.ifftn(apply(spec, _ref_laplace_symbol(form)), axes=axes).real


def _ref_poisson(spec, sym):
    inv = np.zeros_like(sym)
    np.divide(1.0, sym, out=inv, where=sym > 0)
    return inv * spec


REFERENCES = (
    (laplacian, lambda f: _ref_spectral(f, lambda s, sym: -sym * s)),
    (solve_poisson, lambda f: _ref_spectral(f, _ref_poisson)),
    (harmonic_part, lambda f: _ref_spectral(f, lambda s, sym: np.where(sym == 0, s, 0.0))),
)


def _ref_exterior_derivative(form):
    n, res = form.grid.n, form.grid.res
    derivs = [_ref_axis_derivative(form.coeffs, 1 + ax, res) for ax in range(n)]
    out = np.zeros((len(components(n, form.k + 1)),) + form.coeffs.shape[1:])
    for ia, axis, io, sign in forms._deriv_table(n, form.k):
        out[io] += sign * derivs[axis][ia]
    return out


def _random_form(grid, k, values, rng):
    # Full-spectrum noise, Nyquist bins included, so every bin is exercised.
    ncomp = len(components(grid.n, k))
    if values == "matrix":
        return MatrixForm(grid, k, rng.standard_normal((ncomp,) + grid.shape + (2, 2)))
    return VectorForm(grid, k, rng.standard_normal((ncomp,) + grid.shape + (3,)))


class TestRealKernelOracle:
    """The real matmul kernel against the complex per-axis FFT algorithm."""

    @pytest.mark.parametrize("values", ["matrix", "vector"])
    @pytest.mark.parametrize("n, res", [(2, 8), (2, 10), (3, 8), (3, 10), (4, 8), (4, 10),
                                        (2, 32), (3, 32)])
    def test_matches_complex_reference(self, n, res, values):
        # res 10 leaves an odd number (4) of interior bins on the halved axis;
        # res 32 grows the differentiation matrix's entries to about res
        grid = Grid(n, res)
        rng = np.random.default_rng(100 * n + res)
        for k in range(n + 1):
            form = _random_form(grid, k, values, rng)
            checks = [(fn(form).coeffs, ref(form)) for fn, ref in REFERENCES]
            if k < n:
                checks.append((exterior_derivative(form).coeffs,
                               _ref_exterior_derivative(form)))
            for got, want in checks:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("res", [8, 10, 32])
    def test_single_axis_derivative(self, res):
        grid = Grid(3, res)
        arr = np.random.default_rng(res).standard_normal(grid.shape + (2,))
        for axis in range(3):
            want = _ref_axis_derivative(arr, axis, res)
            got = forms._spectral_axis_derivative(arr, axis, res)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestDifferentiationMatrix:
    """The circulant spectral derivative is skew and kills constants exactly."""

    @pytest.mark.parametrize("res", [8, 10, 32, 64])
    def test_bitwise_skew(self, res):
        mat = forms._derivative_matrix(res)
        assert mat.shape == (res, res)
        assert np.array_equal(mat, -mat.T)

    @pytest.mark.parametrize("res", [8, 10, 32])
    def test_constant_field_is_exactly_flat(self, res):
        grid = Grid(3, res)
        value = np.random.default_rng(res).standard_normal((3, 3))
        const = MatrixForm(grid, 0, np.broadcast_to(value, (1,) + grid.shape + (3, 3)).copy())
        assert np.all(exterior_derivative(const).coeffs == 0.0)
        for axis in range(3):
            assert np.all(forms._spectral_axis_derivative(const.coeffs, 1 + axis, res) == 0.0)

    @pytest.mark.parametrize("res", [8, 10, 32])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_zero_fill_formulation(self, n, res):
        # Writing the first term in place and negating D instead of the
        # derivative moves no bit against summing signed partials into zeros.
        grid = Grid(n, res)
        rng = np.random.default_rng(10 * n + res)
        for k in range(n):
            form = VectorForm(grid, k, rng.standard_normal(
                (len(components(n, k)),) + grid.shape + (1,)))
            want = np.zeros((len(components(n, k + 1)),) + form.coeffs.shape[1:])
            for ia, axis, io, sign in forms._deriv_table(n, k):
                want[io] += sign * forms._spectral_axis_derivative(form.coeffs[ia], axis, res)
            assert np.array_equal(exterior_derivative(form).coeffs, want)


def _composition(op, form):
    """A derivative plan's operator as the public operators compose it."""
    n, k = form.grid.n, form.k
    if op == "d":
        return exterior_derivative(form)
    if op == "d*star":
        return exterior_derivative(hodge_star(form))
    if op == "star*d*":
        return hodge_star(codifferential(form))
    sign = -1.0 if (n * (k + 1) + 1) % 2 else 1.0
    return sign * hodge_star(exterior_derivative(hodge_star(form)))


PLANS = {"d": forms._d_plan, "d*star": forms._d_star_plan,
         "d*": forms._codiff_plan, "star*d*": forms._star_codiff_plan}


class TestDerivativePlans:
    """d, d *, d* and * d* run as cached plans through two executors."""

    @pytest.mark.parametrize("executor", ["image", "add", "subtract"])
    @pytest.mark.parametrize("op", list(PLANS))
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_the_public_composition(self, n, m, op, executor):
        # every sign is a product of +-1, applied after the sum, and every
        # output sums its terms in the order of d on the (starred) form, so
        # no bit moves; x - y is bitwise x + (-y), and a zero value entry
        # (as on the diagonal of antisymmetric values) keeps its sign
        grid = Grid(n, 8)
        rng = np.random.default_rng(100 * n + 10 * m + len(op))
        degrees = range(n) if op == "d" else range(1, n + 1)
        for k in degrees:
            coeffs = rng.standard_normal((len(components(n, k)),) + grid.shape + (m, m))
            coeffs[..., 0, 0] = 0.0
            form = MatrixForm(grid, k, coeffs)
            plan = PLANS[op](n, k)
            want = _composition(op, form).coeffs
            if executor == "image":
                got = forms._image(form.coeffs, plan, grid.res)
            else:
                target = rng.standard_normal(want.shape)
                target[..., 0, 0] = 0.0
                got = target.copy()
                weight = 1.0 if executor == "add" else -1.0
                forms._add_image(got, form.coeffs, plan, grid.res, weight)
                want = target + want if weight > 0 else target - want
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_working_set_of_a_two_form(self, transient_peak):
        # The output plus one work and one product array of a component:
        # the star copies and the sign's temporary are gone.
        grid = Grid(3, 16)
        form = synth.random_matrix_form(grid, 2, 3, np.random.default_rng(4), kmax=2)
        assert transient_peak(codifferential, form) <= 2.0 * form.coeffs.nbytes


class TestFourierBasis:
    """The real Fourier basis is orthonormal and the symbols keep constants exact."""

    @pytest.mark.parametrize("res", [8, 10, 32, 64])
    def test_orthonormal(self, res):
        basis, wave = forms._fourier_basis(res)
        assert basis.shape == (res, res) and wave.shape == (res,)
        assert np.abs(basis @ basis.T - np.eye(res)).max() <= 1e-14
        assert wave[0] == 0.0 and wave[-1] == 0.0

    @pytest.mark.parametrize("res", [8, 10, 32])
    def test_constant_field_is_exact(self, res):
        grid = Grid(3, res)
        value = np.random.default_rng(res).standard_normal((3, 3))
        const = MatrixForm(grid, 1, np.broadcast_to(value, (3,) + grid.shape + (3, 3)).copy())
        assert np.all(laplacian(const).coeffs == 0.0)
        assert np.all(solve_poisson(const).coeffs == 0.0)
        assert np.array_equal(harmonic_part(const).coeffs, const.coeffs)


class TestNyquistModes:
    """Pure Nyquist modes sit in the kernel of every symbol, on every axis."""

    @pytest.mark.parametrize("res", [8, 10])
    @pytest.mark.parametrize("axis", [0, 2])  # the first and the last spatial axis
    @pytest.mark.parametrize("values", ["matrix", "vector"])
    def test_nyquist_field_is_harmonic(self, axis, res, values):
        grid = Grid(3, res)
        sign = (-1.0) ** np.arange(res)
        shape = [1] * 3
        shape[axis] = res
        wave = np.broadcast_to(sign.reshape(shape), grid.shape)
        vshape = (2, 2) if values == "matrix" else (3,)
        value = np.random.default_rng(axis).standard_normal((3, 1, 1, 1) + vshape)
        coeffs = wave.reshape((1,) + grid.shape + (1,) * len(vshape)) * value
        form = (MatrixForm if values == "matrix" else VectorForm)(grid, 1, coeffs)
        assert np.abs(exterior_derivative(form).coeffs).max() <= 1e-14
        assert np.abs(harmonic_part(form).coeffs - form.coeffs).max() <= 1e-14
        assert np.abs(solve_poisson(form).coeffs).max() <= 1e-14


COMPLEX_TRANSFORMS = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2")
REAL_FORWARD = ("rfft", "rfftn", "rfft2")
REAL_INVERSE = ("irfft", "irfftn", "irfft2")
KERNEL_MODULES = ("gaugeflow.forms", "gaugeflow.solver", "gaugeflow.maps", "gaugeflow.verify")


@pytest.fixture
def fft_calls(monkeypatch):
    """Count np.fft calls by (calling module, transform name)."""
    calls = collections.Counter()

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[sys._getframe(1).f_globals.get("__name__"), name] += 1
            return original(*args, **kwargs)
        return counted

    for name in COMPLEX_TRANSFORMS + REAL_FORWARD + REAL_INVERSE:
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    return calls


class TestTransformCount:
    """The calculus takes no np.fft transform: derivatives are matmuls by the
    differentiation matrix, symbols act through the real Fourier basis."""

    @pytest.mark.parametrize("op", ["exterior_derivative", "laplacian", "solve_poisson",
                                    "gradient_norm"])
    def test_one_forward_real_transform(self, op, fft_calls, rng):
        form = synth.random_matrix_form(Grid(3, 8), 2, 2, rng, kmax=2)
        fft_calls.clear()  # synth draws with a complex inverse transform
        if op == "gradient_norm":
            solver.gradient_norm(form, 2.0)
        else:
            getattr(forms, op)(form)
        assert not fft_calls

    def test_pipeline_issues_no_complex_transform(self, fft_calls):
        grid = Grid(3, 8)
        u = maps.heat_flow_relax(
            maps.perturbed_map(maps.constant_map(grid, 3), 3e-4, seed=42, kmin=2, kmax=2),
            steps=3)
        omega = connection.omega_sphere(u)
        pair = gauge.minimize_gauge(omega, tol=1e-5)
        A, B, _ = solver.solve_pair(omega, solver.PicardMap.of(pair), tol=1e-8)
        verify.conservation_residual(A, B, u)
        verify.sphere_divergence_residual(connection.omega_sphere(u))
        verify.bound_ratios(A, B, omega)
        maps.tension_residual(u)
        # synth draws the noise and the uniqueness probe with a complex inverse
        assert fft_calls
        assert not [key for key in fft_calls if key[0] in KERNEL_MODULES]

    @pytest.mark.parametrize("module", [forms, solver, maps, verify])
    def test_no_complex_transform_in_source(self, module):
        # also covers branches the pipeline above does not reach
        pattern = r"\bfft\.(?:%s)\(" % "|".join(
            COMPLEX_TRANSFORMS + REAL_FORWARD + REAL_INVERSE)
        assert not re.search(pattern, inspect.getsource(module))


# np.sum/np.mean over several axes and squares summed through a temporary
# take numpy's slow paths; np.dot and np.vdot go to BLAS, whose split of a
# dot product depends on the thread count.
SLOW_OR_BLAS_REDUCTIONS = (r"\*\* 2\)\.sum\(", r"np\.sum\([^\n]*\*\* 2", r"\.mean\(axis=",
                           r"np\.vdot\(", r"np\.dot\(")


# The derivative kernel's choices (the signed matrices, the in-place sums,
# the operator tables) stay behind forms' plans and executors.
KERNEL_INTERNALS = r"\b_(?:sum_partials|differentiate_into|negated_derivative_matrix|\w+_table)\b"


class TestKernelBoundary:
    @pytest.mark.parametrize("module", ["cli", "config", "connection", "fieldio", "gauge",
                                        "lorentz", "maps", "pipeline", "solver", "synth",
                                        "verify"])
    def test_no_module_but_forms_names_the_kernel(self, module):
        source = inspect.getsource(importlib.import_module(f"gaugeflow.{module}"))
        assert not re.findall(KERNEL_INTERNALS, source)


# The so(m) channels' layout has one owner: forms builds and expands them.
SKEW_CHANNELS = r"\.upper\b|\b_skew_basis\b|triu_indices"


class TestSkewChannelBoundary:
    @pytest.mark.parametrize("module", ["cli", "config", "connection", "fieldio", "gauge",
                                        "lorentz", "maps", "pipeline", "solver", "synth",
                                        "verify"])
    def test_no_module_but_forms_indexes_skew_channels(self, module):
        source = inspect.getsource(importlib.import_module(f"gaugeflow.{module}"))
        assert not re.findall(SKEW_CHANNELS, source)


class TestReductions:
    """Squared sums and grid means go through the einsum helpers in forms."""

    @pytest.mark.parametrize("module", [forms, solver, maps, gauge, lorentz, verify,
                                        connection])
    def test_no_slow_or_blas_reduction_in_source(self, module):
        source = inspect.getsource(module)
        found = [p for p in SLOW_OR_BLAS_REDUCTIONS if re.search(p, source)]
        assert not found

    @pytest.mark.parametrize("values", ["matrix", "vector"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_helpers_match_the_plain_formulas(self, n, values):
        grid = Grid(n, 8)
        rng = np.random.default_rng(n)
        spatial = tuple(range(1, n + 1))
        for k in range(n + 1):
            ncomp = len(components(n, k))
            for m in (1, 2, 3):
                vshape = (m, m) if values == "matrix" else (m,)
                cls = MatrixForm if values == "matrix" else VectorForm
                form = cls(grid, k, rng.standard_normal((ncomp,) + grid.shape + vshape))
                c = form.coeffs
                value_axes = tuple(range(n + 1, c.ndim))
                np.testing.assert_allclose(
                    forms._pointwise_sq(c, 1, n), np.sum(c ** 2, axis=(0,) + value_axes),
                    rtol=1e-14, atol=0)
                np.testing.assert_allclose(
                    pointwise_norm(form), np.sqrt(np.sum(c ** 2, axis=(0,) + value_axes)),
                    rtol=1e-14, atol=0)
                other = np.abs(rng.standard_normal(c.shape))
                assert forms._sum_products(np.abs(c), other) == pytest.approx(
                    float(np.sum(np.abs(c) * other)), rel=1e-14)
                assert l2_norm(form) == pytest.approx(
                    float(np.sqrt(np.sum(c ** 2) * grid.cell)), rel=1e-14)
                # offset so the means sit away from zero and compare relatively
                shifted = cls(grid, k, c + 3.0)
                np.testing.assert_allclose(
                    forms._grid_means(shifted).reshape((ncomp,) + vshape),
                    shifted.coeffs.mean(axis=spatial), rtol=1e-14, atol=0)

    def test_pointwise_sq_on_leading_grid_axes(self, rng):
        # maps and gauge pass values whose grid axes come first
        grid = Grid(3, 8)
        values = rng.standard_normal(grid.shape + (3, 3))
        np.testing.assert_allclose(forms._pointwise_sq(values, 0, 3),
                                   np.sum(values ** 2, axis=(-1, -2)), rtol=1e-14, atol=0)
