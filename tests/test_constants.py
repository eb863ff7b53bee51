"""Oracle for every sign in the fixed-point sources and the conservation current.

The solver's Poisson right-hand sides and the verifier's current are fixed
by a small table of couplings.  Each coupling is pinned twice here: exactly,
by polynomial arithmetic over the production sign tables (_symbolic), and
numerically, on band-limited fields where products stay below the aliasing
threshold.  solver.py and verify.py must match these expressions verbatim.
"""

import random

import numpy as np
import pytest

import _symbolic as sym
from gaugeflow import forms, gauge, solver, synth
from gaugeflow.forms import Grid, MatrixForm


def second_sign(n: int) -> int:
    """Coupling of the potential-rotation source: (-1)^(n+1)."""
    return -1 if n % 2 == 0 else 1


def mul0(a: MatrixForm, f):
    """Left multiply a k-form by a matrix 0-form, pointwise."""
    return f._like(np.einsum("...ij,c...jk->c...ik", a.coeffs[0], f.coeffs))


def rmul0(f, q: MatrixForm):
    return f._like(np.einsum("c...ij,...jk->c...ik", f.coeffs, q.coeffs[0]))


class TestSymbolicCouplings:
    """Exact polynomial certification, n = 2 and n = 3, 2 x 2 values."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradient_potential_coupling(self, n, seed):
        # d*(a d*xi) = -star(da ^ d(star xi))
        rng = random.Random(seed)
        xs = sym.coords(n)
        a = sym.rand_form(n, 0, rng, xs)
        xi = sym.rand_form(n, 2, rng, xs)
        lhs = sym.codiff(sym.lmul(a.mats[0], sym.codiff(xi, xs)), xs)
        rhs = sym.star(sym.wedge(sym.d(a, xs), sym.d(sym.star(xi), xs)))
        assert sym.is_zero(lhs + rhs)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rotation_transport_coupling(self, n, seed):
        # d*(d*B Q) = -(-1)^(n+1) star(d(star B) ^ dQ)
        rng = random.Random(seed)
        xs = sym.coords(n)
        b = sym.rand_form(n, 2, rng, xs)
        q = sym.rand_form(n, 0, rng, xs)
        lhs = sym.codiff(sym.rmul(sym.codiff(b, xs), q.mats[0]), xs)
        rhs = sym.star(sym.wedge(sym.d(sym.star(b), xs), sym.d(q, xs)))
        assert sym.is_zero(lhs + second_sign(n) * rhs)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sandwiched_potential_coupling(self, n, seed):
        # d(a d*xi q) = star d*(a d(star xi) q), coefficient +1 in every n
        rng = random.Random(seed)
        xs = sym.coords(n)
        a = sym.rand_form(n, 0, rng, xs)
        xi = sym.rand_form(n, 2, rng, xs)
        q = sym.rand_form(n, 0, rng, xs)
        lhs = sym.d(sym.rmul(sym.lmul(a.mats[0], sym.codiff(xi, xs)), q.mats[0]), xs)
        rhs = sym.star(sym.codiff(
            sym.rmul(sym.lmul(a.mats[0], sym.d(sym.star(xi), xs)), q.mats[0]), xs))
        assert sym.is_zero(lhs - rhs)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_scalar_source_assembly(self, n, seed):
        # applying d* to the transported equation r = dA - A d*xi + d*B P
        # produces exactly the scalar Poisson source the solver assembles
        rng = random.Random(seed)
        xs = sym.coords(n)
        a = sym.rand_form(n, 0, rng, xs)
        xi = sym.rand_form(n, 2, rng, xs)
        b = sym.rand_form(n, 2, rng, xs)
        p = sym.rand_form(n, 0, rng, xs)
        r = (sym.d(a, xs) - sym.lmul(a.mats[0], sym.codiff(xi, xs))
             + sym.rmul(sym.codiff(b, xs), p.mats[0]))
        lhs = sym.codiff(r, xs).mats[0]
        rhs = (-sym.laplace(a.mats[0], xs)
               + sym.star(sym.wedge(sym.d(a, xs), sym.d(sym.star(xi), xs))).mats[0]
               - second_sign(n)
               * sym.star(sym.wedge(sym.d(sym.star(b), xs), sym.d(p, xs))).mats[0])
        assert sym.mat_is_zero(lhs - rhs)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_two_form_source_assembly(self, n, seed):
        # d applied to the transported codifferential d*B = (A d*xi - dA) Q
        # produces exactly the 2-form Poisson source the solver assembles
        rng = random.Random(seed)
        xs = sym.coords(n)
        a = sym.rand_form(n, 0, rng, xs)
        xi = sym.rand_form(n, 2, rng, xs)
        q = sym.rand_form(n, 0, rng, xs)
        lhs = sym.d(sym.rmul(sym.lmul(a.mats[0], sym.codiff(xi, xs)), q.mats[0])
                    - sym.rmul(sym.d(a, xs), q.mats[0]), xs)
        rhs = (sym.wedge(sym.d(a, xs), sym.d(q, xs))
               + sym.star(sym.codiff(
                   sym.rmul(sym.lmul(a.mats[0], sym.d(sym.star(xi), xs)), q.mats[0]), xs)))
        assert sym.is_zero(lhs - rhs)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_current_divergence_identity(self, n, seed):
        # d[star(A du) + (-1)^(n-1) (star B) ^ du]
        #   = (<dA, du> + A lap(u) + <d*B, du>) vol
        rng = random.Random(seed)
        xs = sym.coords(n)
        a = sym.rand_form(n, 0, rng, xs)
        b = sym.rand_form(n, 2, rng, xs)
        u = sym.rand_form(n, 0, rng, xs, rows=2, cols=1)
        du = sym.d(u, xs)
        current = (sym.star(sym.lmul(a.mats[0], du))
                   + (-1) ** (n - 1) * sym.wedge(sym.star(b), du))
        density = (sym.contract(sym.d(a, xs), du)
                   + a.mats[0] * sym.laplace(u.mats[0], xs)
                   + sym.contract(sym.codiff(b, xs), du))
        assert sym.mat_is_zero(sym.d(current, xs).mats[0] - density)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_coordinate_current_agreement(self, n, seed):
        # component gamma of the current equals, up to the insertion sign
        # (-1)^gamma, the flux A d_gamma(u) + sign * sum_beta Btil[gamma, beta] d_beta(u);
        # the current's weight and the coordinate flux sign are read from
        # the solver, so flipping either one alone breaks the agreement
        weight = solver.current_weight(n)
        flux_sign = solver.COORDINATE_FLUX_SIGN
        assert weight in (1.0, -1.0) and flux_sign in (1.0, -1.0)
        rng = random.Random(seed)
        xs = sym.coords(n)
        a = sym.rand_form(n, 0, rng, xs)
        b = sym.rand_form(n, 2, rng, xs)
        u = sym.rand_form(n, 0, rng, xs, rows=2, cols=1)
        du = sym.d(u, xs)
        current = (sym.star(sym.lmul(a.mats[0], du))
                   + int(weight) * sym.wedge(sym.star(b), du))

        two_comps = list(forms.components(n, 2))
        out_comps = list(forms.components(n, n - 1))

        def btil(al, be):
            if al == be:
                return b.mats[0] * 0
            if al < be:
                return b.mats[two_comps.index((al, be))]
            return -b.mats[two_comps.index((be, al))]

        for gamma in range(n):
            flux = a.mats[0] * du.mats[gamma]
            for beta in range(n):
                if beta != gamma:
                    flux = flux + int(flux_sign) * btil(gamma, beta) * du.mats[beta]
            missing = tuple(ax for ax in range(n) if ax != gamma)
            comp = current.mats[out_comps.index(missing)]
            assert sym.mat_is_zero((-1) ** gamma * comp - flux)


class TestBandLimitedCouplings:
    """The same identities on the spectral grid, including n = 4.

    Band limits keep every product below the aliasing threshold, so each
    identity must hold to rounding; this pins the n-dependence of the table
    in the production calculus.
    """

    @pytest.fixture(params=[2, 3, 4])
    def setup(self, request):
        n = request.param
        grid = Grid(n, 16)
        rng = np.random.default_rng(100 + n)
        draw = lambda k: synth.random_matrix_form(grid, k, 2, rng, kmax=2)
        return grid, draw

    def test_gradient_potential_coupling(self, setup):
        grid, draw = setup
        a, xi = draw(0), draw(2)
        lhs = forms.codifferential(mul0(a, forms.codifferential(xi)))
        rhs = forms.hodge_star(forms.wedge(
            forms.exterior_derivative(a),
            forms.exterior_derivative(forms.hodge_star(xi))))
        assert forms.l2_norm(lhs + rhs) <= 1e-10 * forms.l2_norm(lhs)

    def test_rotation_transport_coupling(self, setup):
        grid, draw = setup
        b, q = draw(2), draw(0)
        lhs = forms.codifferential(rmul0(forms.codifferential(b), q))
        rhs = forms.hodge_star(forms.wedge(
            forms.exterior_derivative(forms.hodge_star(b)),
            forms.exterior_derivative(q)))
        assert forms.l2_norm(lhs + float(second_sign(grid.n)) * rhs) \
            <= 1e-10 * forms.l2_norm(lhs)

    def test_sandwiched_potential_coupling(self, setup):
        grid, draw = setup
        a, xi, q = draw(0), draw(2), draw(0)
        lhs = forms.exterior_derivative(
            rmul0(mul0(a, forms.codifferential(xi)), q))
        rhs = forms.hodge_star(forms.codifferential(
            rmul0(mul0(a, forms.exterior_derivative(forms.hodge_star(xi))), q)))
        assert forms.l2_norm(lhs - rhs) <= 1e-10 * forms.l2_norm(lhs)

    def test_scalar_source_assembly(self, setup):
        grid, draw = setup
        a, xi, b, p = draw(0), draw(2), draw(2), draw(0)
        r = (forms.exterior_derivative(a)
             - mul0(a, forms.codifferential(xi))
             + rmul0(forms.codifferential(b), p))
        lhs = forms.codifferential(r)
        rhs = (-1.0 * forms.laplacian(a)
               + forms.hodge_star(forms.wedge(
                   forms.exterior_derivative(a),
                   forms.exterior_derivative(forms.hodge_star(xi))))
               - float(second_sign(grid.n)) * forms.hodge_star(forms.wedge(
                   forms.exterior_derivative(forms.hodge_star(b)),
                   forms.exterior_derivative(p))))
        assert forms.l2_norm(lhs - rhs) <= 1e-10 * forms.l2_norm(lhs)

    def test_two_form_source_assembly(self, setup):
        grid, draw = setup
        a, xi, q = draw(0), draw(2), draw(0)
        da = forms.exterior_derivative(a)
        lhs = forms.exterior_derivative(
            rmul0(mul0(a, forms.codifferential(xi)), q) - rmul0(da, q))
        rhs = (forms.wedge(da, forms.exterior_derivative(q))
               + forms.hodge_star(forms.codifferential(rmul0(
                   mul0(a, forms.exterior_derivative(forms.hodge_star(xi))), q))))
        assert forms.l2_norm(lhs - rhs) <= 1e-10 * forms.l2_norm(lhs)

    def test_two_path_current_divergence(self, setup, random_vector_form):
        # exact to rounding at ANY band limit: both paths differentiate the
        # same pointwise products
        grid, draw = setup
        n = grid.n
        a, b = draw(0), draw(2)
        rng = np.random.default_rng(7)
        u = random_vector_form(grid, 0, 2, rng, kmax=3)
        du = forms.exterior_derivative(u)
        current = forms.wedge(a, du)  # A du as a vector 1-form
        path1 = forms.exterior_derivative(
            forms.hodge_star(current)
            + float((-1) ** (n - 1)) * forms.wedge(forms.hodge_star(b), du))

        two_comps = list(forms.components(n, 2))
        btil = np.zeros((n, n) + grid.shape + (2, 2))
        for idx, (al, be) in enumerate(two_comps):
            btil[al, be] = b.coeffs[idx]
            btil[be, al] = -b.coeffs[idx]
        divergence = np.zeros(grid.shape + (2,))
        for gamma in range(n):
            flux = np.einsum("...ij,...j->...i", a.coeffs[0], du.coeffs[gamma])
            flux -= np.einsum("b...ij,b...j->...i", btil[gamma], du.coeffs)
            divergence += forms._spectral_axis_derivative(flux, gamma, grid.res)
        scale = np.abs(path1.coeffs[0]).max()
        assert np.abs(path1.coeffs[0] - divergence).max() <= 1e-12 * scale

    def test_sources_have_zero_mean(self, setup):
        # every Poisson source is a divergence in disguise; the grid means
        # vanish by exact discrete adjointness, not just asymptotically
        grid, draw = setup
        a, xi, b, p = draw(0), draw(2), draw(2), draw(0)
        scalar_src = (forms.hodge_star(forms.wedge(
            forms.exterior_derivative(a),
            forms.exterior_derivative(forms.hodge_star(xi))))
            - float(second_sign(grid.n)) * forms.hodge_star(forms.wedge(
                forms.exterior_derivative(forms.hodge_star(b)),
                forms.exterior_derivative(p))))
        two_src = (forms.wedge(forms.exterior_derivative(a),
                               forms.exterior_derivative(p))
                   + forms.hodge_star(forms.codifferential(rmul0(
                       mul0(a, forms.exterior_derivative(forms.hodge_star(xi))), p))))
        axes = tuple(range(1, grid.n + 1))
        for src in (scalar_src, two_src):
            means = np.abs(src.coeffs.mean(axis=axes)).max()
            assert means <= 1e-13 * np.abs(src.coeffs).max()


class TestPicardStepCouplings:
    """The solver's step against the two sources assembled here.

    The table above certifies each identity with literal signs; this class
    reads the solver's own coupling constants through picard_step, so a
    flipped constant moves the step away from the certified assembly.
    """

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_step_is_the_certified_assembly(self, n):
        grid = Grid(n, 16)
        rng = np.random.default_rng(200 + n)
        sigma = synth.random_matrix_form(grid, 0, 3, rng, kmax=2, antisymmetric=True)
        p = MatrixForm(grid, 0, gauge.so_exp(0.3 * sigma.coeffs[0])[None])
        pt = MatrixForm(grid, 0, gauge._transpose(p.coeffs[0])[None])
        xi = synth.random_matrix_form(grid, 2, 3, rng, kmax=2, antisymmetric=True)
        d_star_xi = forms.exterior_derivative(forms.hodge_star(xi))
        pmap = solver.PicardMap(pt.coeffs[0], forms.SkewForm.skew_part(d_star_xi))
        state = solver.random_state(grid, 3, rng)
        got = solver.picard_step(state, pmap)

        da = forms.exterior_derivative(state.a)
        d_star_b = forms.exterior_derivative(forms.hodge_star(state.b))
        a_new = forms.solve_poisson(
            -1.0 * forms.hodge_star(forms.wedge(da, d_star_xi))
            + float(second_sign(n)) * forms.hodge_star(
                forms.wedge(d_star_b, forms.exterior_derivative(p))))
        a_tilde = MatrixForm(grid, 0, (state.a.coeffs[0] + np.eye(3))[None])
        b_new = forms.project_closed(forms.solve_poisson(
            forms.wedge(da, forms.exterior_derivative(pt))
            + forms.hodge_star(forms.codifferential(rmul0(mul0(a_tilde, d_star_xi), pt)))))
        for have, want in ((got.a, a_new), (got.b, b_new)):
            assert forms.l2_norm(have - want) <= 1e-12 * forms.l2_norm(want)
