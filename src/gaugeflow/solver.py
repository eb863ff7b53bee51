"""Fixed-point construction of the conservation pair (A, B).

Starting from a Coulomb gauge (P, xi) for the connection Omega, iterate the
affine map sending a state (a, b) to the solutions of

    -lap(a') = -star(da ^ d(star xi)) + sign_n * star(d(star b) ^ dP)
    -lap(b') =  da ^ dP^T + star d*((id + a) d(star xi) P^T),  b' closed,

with sign_n = (-1)^(n+1).  Both sources are certified against an exact
symbolic oracle (tests/test_constants.py); COUPLINGS_VERSION names the
frozen table.  The fixed point yields A = (id + a) P^T and B = b with
dA - A Omega + d*B vanishing up to the gauge's harmonic obstruction, which
is the conservation identity the verifier measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms, gauge, lorentz, synth
from .forms import Grid, MatrixForm, SkewForm
from .gauge import GaugePair

__all__ = [
    "COUPLINGS_VERSION",
    "PairState",
    "StateNorm",
    "SolveReport",
    "SolverError",
    "state_norm",
    "gradient_norm",
    "random_state",
    "PicardMap",
    "picard_step",
    "solve_pair",
    "measure_contraction",
    "pair_residual",
]

# Couplings of the two Poisson sources, the current weight, and the
# coordinate flux sign, pinned by tests/test_constants.py.  second_sign(n)
# is the parity (-1)^(n+1) carried by the codifferential on 2-forms.
COUPLINGS_VERSION = "ab-couplings-1"

SCALAR_GRADIENT_COUPLING = -1.0
TWO_FORM_JACOBIAN_COUPLING = 1.0
TWO_FORM_TRANSPORT_COUPLING = 1.0
COORDINATE_FLUX_SIGN = -1.0

MEAN_TOL = 1e-8
CLOSED_TOL = 1e-8
# Relative margin of the up-front regime guard.  A connection rescaled to
# exactly the limit measures within a few ulps of it on either side, so an
# exact comparison would let rounding decide; the margin sits far above that
# rounding and far below any size difference that matters.
REGIME_RTOL = 1e-12


def second_sign(n: int) -> float:
    return -1.0 if n % 2 == 0 else 1.0


def current_weight(n: int) -> float:
    """Weight of the (star B) ^ du block of the conservation current."""
    return float((-1) ** (n - 1))


@dataclass(frozen=True, eq=False)
class PairState:
    """Scalar-block 0-form a and closed 2-form b of the fixed-point iteration."""

    a: MatrixForm
    b: MatrixForm

    def __post_init__(self):
        if self.a.k != 0 or self.b.k != 2:
            raise ValueError("state must hold a 0-form and a 2-form")
        if self.a.grid != self.b.grid or self.a.m != self.b.m:
            raise ValueError("state blocks are incompatible")
        if self.b.k == self.b.grid.n:
            return  # a top-degree form is closed by degree
        # Relative above unit size so rounding dust never trips on large data.
        closed_defect = forms.l2_norm(forms.exterior_derivative(self.b))
        if not closed_defect <= CLOSED_TOL * max(1.0, forms.l2_norm(self.b)):
            raise ValueError(f"two-form block is not closed: ||db|| = {closed_defect:.3e}")

    @classmethod
    def zeros(cls, grid: Grid, m: int) -> "PairState":
        return cls(MatrixForm.zeros(grid, 0, m), MatrixForm.zeros(grid, 2, m))


@dataclass(frozen=True)
class StateNorm:
    """sup of the 0-form plus first-derivative Lorentz L^{n,2} sizes.

    Every iterate's 2-form block is closed (both Poisson sources are exact),
    so its exterior derivative vanishes identically and would make the norm
    blind to that block; the informative derivative size is the full
    coordinate gradient, which is also what the existence bound controls.
    For the 0-form block the exterior derivative already is the gradient.
    """

    sup_a: float
    da_n2: float
    db_n2: float
    total: float

    def __post_init__(self):
        assert self.total == self.sup_a + self.da_n2 + self.db_n2


def _gradient_size(components, grid: Grid) -> float:
    """Lorentz L^{n,2} norm of the full first derivative of these components."""
    square = forms._gradient_sq(components, grid.n, grid.res)
    return lorentz.lorentz_norm(np.sqrt(square, out=square), float(grid.n), 2.0)


def gradient_norm(form) -> float:
    """Lorentz L^{n,2} norm of the full first derivative of a form.

    One partial of one component is live at a time.
    """
    return _gradient_size(form.coeffs, form.grid)


def _norm_beside(a: MatrixForm, db: float) -> StateNorm:
    """Norm of the state with 0-form block a and 2-form gradient size db."""
    sup_a = forms.sup_norm(a)
    da = _gradient_size(a.coeffs, a.grid)
    return StateNorm(sup_a, da, db, sup_a + da + db)


def state_norm(a: MatrixForm, b: MatrixForm) -> StateNorm:
    """Norm of the state with blocks (a, b)."""
    return _norm_beside(a, gradient_norm(b))


def _differences(new: np.ndarray, old: np.ndarray):
    """new - old, one component at a time, in one reused array."""
    diff = np.empty(new.shape[1:])
    for new_comp, old_comp in zip(new, old):
        np.subtract(new_comp, old_comp, out=diff)
        yield diff


def _difference_norm(new: PairState, old: PairState) -> StateNorm:
    """state_norm of new - old, with no full-size 2-form difference.

    The 2-form difference streams one component at a time, and goes first
    so the 0-form difference, formed whole, is not live beside its work.
    """
    db = _gradient_size(_differences(new.b.coeffs, old.b.coeffs), new.b.grid)
    return _norm_beside(new.a - old.a, db)


def random_state(grid: Grid, m: int, rng: np.random.Generator) -> PairState:
    """A state on the unit sphere of the norm, with modes max|k| <= 2."""
    a = synth.random_matrix_form(grid, 0, m, rng, 2, antisymmetric=False)
    b = forms.project_closed(synth.random_matrix_form(grid, 2, m, rng, 2))
    scale = 1.0 / state_norm(a, b).total
    return PairState(scale * a, scale * b)


class SolverError(RuntimeError):
    """Iteration failed; carries the per-step difference-norm trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = tuple(trace)


def _check_source_mean(src: MatrixForm, label: str) -> None:
    # Sources are divergences, so their means vanish to rounding; tolerance is
    # relative above unit size so scale alone cannot trip the wiring check.
    defect = float(np.abs(forms._grid_means(src)).max())
    if not defect <= MEAN_TOL * max(1.0, forms.l2_norm(src)):
        raise RuntimeError(f"exactness identity broken: {label} source mean {defect:.3e}")


@dataclass(frozen=True, eq=False)
class PicardMap:
    """All the construction reads of a gauge pair (P, xi).

    The affine map's gauge coefficients P^T and d(star xi).  Neither P nor
    xi is read again, so a caller that drops its gauge pair once the map is
    built frees both before the first Picard step.

    P^T is a contiguous copy, since batched products with a transposed view
    as right operand take numpy's slow path.  d(star xi) is the pair's own
    so(m) channels, a third of its full size at m = 3, so building the map
    takes no derivative; each step's two readers expand it one component
    at a time.  dP is not held: each step takes the rotation's partials
    itself, one at a time, where its two wedges read them, so the map holds
    two thirds of a 2-form at m = 3 where dP alone would hold one.
    """

    pt: np.ndarray
    d_star_xi: SkewForm

    @classmethod
    def of(cls, gauge_pair: GaugePair) -> "PicardMap":
        return cls(gauge._transpose(gauge_pair.P.coeffs[0]), gauge_pair.d_star_xi)


def _scale(arr: np.ndarray, weight: float) -> None:
    """arr *= weight in place; a unit weight touches nothing."""
    if weight != 1.0:
        arr *= weight


def _transported_current(a_tilde: np.ndarray, pmap: PicardMap) -> np.ndarray:
    """(id + a) d(star xi) P^T, built one component at a time into one array.

    Each component of d(star xi) expands into its own output slot, which
    the second product then overwrites.
    """
    d_star_xi = pmap.d_star_xi
    out = np.empty(d_star_xi.shape)
    left = np.empty(out.shape[1:])
    for index, target in enumerate(out):
        np.matmul(a_tilde, d_star_xi.expand_into(index, target), out=left)
        np.matmul(left, pmap.pt, out=target)
    return out


def picard_step(state: PairState, pmap: PicardMap) -> PairState:
    """One application of the affine fixed-point map.

    Both Poisson sources are divergences of periodic quantities, so their
    grid means vanish by exact discrete adjointness; a mean above 1e-8
    (relative above unit source size) indicates a broken coupling and
    raises rather than silently shifting the solution.

    Each source is built in place, solved in its own array, and every
    full-size temporary goes as soon as it is consumed, so the step's
    working set stays a few 2-forms.  The rotation's partials are taken
    here, each once, where the wedges read them: d(star b) ^ dP first,
    from one copy of P, before da exists, and da ^ dP^T from P^T, whose
    partials are bitwise those of P transposed.  The three wedges share
    one component's scratch arrays.  d(star b) and the starred
    codifferential of the transported current run as derivative plans,
    with no copy of a starred form and no full-size codifferential.  The
    solved 2-form is projected onto closed forms in its own array, so the
    iterate before the projection is never held beside it.
    """
    grid = state.a.grid
    right, work, prod = (np.empty(pmap.pt.shape) for _ in range(3))
    d_star_b = MatrixForm(grid, grid.n - 1, forms._image(
        state.b.coeffs, forms._d_star_plan(grid.n, 2), grid.res))
    rotation = forms._Partials(grid, gauge._transpose(pmap.pt), work)
    # Both wedges are top forms, whose star is their one component, sign +1.
    second = forms._wedge_coeffs(d_star_b, rotation, right, prod)
    del d_star_b, rotation
    da = forms.exterior_derivative(state.a)
    scalar = forms._wedge_coeffs(da, pmap.d_star_xi, right, prod)
    _scale(scalar, SCALAR_GRADIENT_COUPLING)
    forms._add_scaled(scalar, second, second_sign(grid.n))
    del second
    a_new = MatrixForm(grid, 0, _solve_source(grid, 0, scalar, "0-form"))
    del scalar

    two = forms._wedge_coeffs(da, forms._Partials(grid, pmap.pt, work), right, prod)
    del da, right, work, prod
    _scale(two, TWO_FORM_JACOBIAN_COUPLING)
    a_tilde = state.a.coeffs[0] + np.eye(state.a.m)
    current = _transported_current(a_tilde, pmap)
    del a_tilde
    forms._add_image(two, current, forms._star_codiff_plan(grid.n, grid.n - 1), grid.res,
                     TWO_FORM_TRANSPORT_COUPLING)
    del current
    b_new = _solve_source(grid, 2, two, "2-form")
    del two
    if grid.n > 2:  # a top-degree form is closed by degree
        forms._project_closed_in_place(b_new, grid.n, 2, grid.res)
    return PairState(a_new, MatrixForm(grid, 2, b_new))


def _solve_source(grid: Grid, k: int, coeffs: np.ndarray, label: str) -> np.ndarray:
    """Check a Poisson source's mean, then solve for it in its own array."""
    # The check reads a frozen view; the array itself stays writable.
    _check_source_mean(MatrixForm(grid, k, coeffs.view()), label)
    return forms._solve_poisson_in_place(coeffs, grid.n, grid.res)


def pair_residual(A: MatrixForm, B: MatrixForm, omega: MatrixForm | synth.Connection):
    """L2 and sup norms of dA - A Omega + d*B."""
    if A.k != 0 or B.k != 2 or omega.k != 1:
        raise ValueError("need a 0-form, a 2-form and a 1-form connection")
    return _residual_norms(forms.exterior_derivative(A), A, B, synth.Connection.of(omega))


def _residual_norms(dA: MatrixForm, A: MatrixForm, B: MatrixForm, omega: SkewForm):
    """pair_residual with dA already taken.

    r = dA - A Omega + d*B is built in one array in the order of that
    expression: dA_c - A Omega_c for each component c, with Omega_c expanded
    into one reused array, then d*B added one component at a time, so
    neither A Omega nor d*B is held whole.
    """
    grid = A.grid
    r = np.empty(dA.coeffs.shape)
    omega_c = np.empty(r.shape[1:])
    for c, (da_c, r_c) in enumerate(zip(dA.coeffs, r)):
        np.matmul(A.coeffs[0], omega.expand_into(c, omega_c), out=r_c)
        np.subtract(da_c, r_c, out=r_c)
    del omega_c  # not held beside d*B's work arrays
    forms._add_image(r, B.coeffs, forms._codiff_plan(grid.n, B.k), grid.res, 1.0)
    r = MatrixForm(grid, 1, r)
    return forms.l2_norm(r), forms.sup_norm(r)


def _assemble(state: PairState, pmap: PicardMap) -> MatrixForm:
    """A = (id + a) P^T."""
    a_tilde = state.a.coeffs[0] + np.eye(state.a.m)
    return MatrixForm(state.a.grid, 0, (a_tilde @ pmap.pt)[None])


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    iterate_norms: tuple
    diff_norms: tuple
    ratios: tuple
    kappa_bar: float
    residual_l2: float
    residual_sup: float
    da_n1: float
    db_n2: float
    rotation_distance_sup: float
    negdet_points: int
    omega_n2: float
    uniqueness_gap: float | None


def _iterate(pmap: PicardMap, state: PairState, tol: float, max_iter: int,
             keep_norms: bool = True):
    """Run the fixed-point loop from `state`; returns (state, norms, diffs, ratios).

    Without keep_norms the iterates' own norms are not taken and `norms`
    comes back empty; the differences are always measured.  Each iterate,
    the start included, is dropped once the next one is measured.
    """
    norms = [state_norm(state.a, state.b)] if keep_norms else []
    diffs = []
    ratios = []
    hot = 0
    for _ in range(max_iter):
        new = picard_step(state, pmap)
        diff = _difference_norm(new, state)
        if diffs:
            ratio = diff.total / diffs[-1].total if diffs[-1].total > 0 else 0.0
            ratios.append(ratio)
            hot = hot + 1 if ratio >= 1.0 else 0
            if hot >= 3:
                raise SolverError(
                    "outside contraction regime: difference ratio >= 1 for "
                    "three consecutive iterations", [d.total for d in diffs])
        diffs.append(diff)
        if keep_norms:
            norms.append(state_norm(new.a, new.b))
        state = new
        if diff.total <= tol:
            return state, norms, diffs, ratios
    last = diffs[-1].total if diffs else float("inf")
    raise SolverError(
        f"fixed point not reached in {max_iter} iterations "
        f"(last difference {last:.3e} > tol {tol:.3e})",
        [d.total for d in diffs])


def solve_pair(omega: MatrixForm | synth.Connection, pmap: PicardMap, tol: float = 1e-8,
               max_iter: int = 200, regime_limit: float = 1.0,
               probe_seed: int | None = 7):
    """Iterate from (0, 0) to the conservation pair (A, B) with a full report.

    `pmap` is the map of omega's gauge pair, PicardMap.of(pair); the solve
    reads nothing else of the pair, which the caller may drop first.  omega
    is read as a synth.Connection, whose L^{n,2} size it carries.

    Raises "outside contraction regime" either up front, when the Lorentz
    L^{n,2} size of omega reaches regime_limit up to a relative margin
    REGIME_RTOL, or dynamically when the difference ratios stay >= 1.  With
    probe_seed set, a second run from a random unit-norm state must land on
    the same fixed point within 10 tol (the uniqueness of the pair is part
    of what the construction claims).
    """
    omega = synth.Connection.of(omega)
    grid, m, size = omega.grid, omega.m, omega.n2
    if not size < regime_limit * (1.0 - REGIME_RTOL):  # a NaN size is refused too
        raise SolverError(
            f"outside contraction regime: ||omega|| = {size:.3e} >= {regime_limit:.3e}", [])

    state, norms, diffs, ratios = _iterate(
        pmap, PairState.zeros(grid, m), tol, max_iter)

    uniqueness_gap = None
    if probe_seed is not None:
        # The probe's start goes straight to _iterate, which drops it after
        # the first step; its fixed point goes once the gap is taken.
        other, _, _, _ = _iterate(
            pmap, random_state(grid, m, np.random.default_rng(probe_seed)),
            tol, max_iter, keep_norms=False)
        uniqueness_gap = _difference_norm(other, state).total
        del other
        if uniqueness_gap > 10 * tol:
            raise SolverError(
                f"uniqueness probe failed: fixed points differ by {uniqueness_gap:.3e} "
                f"> {10 * tol:.3e}", [d.total for d in diffs])

    A = _assemble(state, pmap)
    B = state.b

    # A = (id + a) P^T with P orthogonal, so A's singular values, taken by
    # the polar decomposition behind the rotation distance, are those of id + a.
    # The last iterate norm is that of the final state, so it holds sup |a|.
    sup_a = norms[-1].sup_a
    dist, negdet, sigma = gauge.rotation_distance(A.coeffs[0])
    smallest = sigma.min()
    if smallest < 1.0 - sup_a - 1e-8:
        raise SolverError(
            f"invertibility margin violated: min singular value {smallest:.3e} "
            f"< 1 - {sup_a:.3e}", [d.total for d in diffs])

    dA = forms.exterior_derivative(A)
    res_l2, res_sup = _residual_norms(dA, A, B, omega)
    report = SolveReport(
        iterations=len(diffs),
        iterate_norms=tuple(norms),
        diff_norms=tuple(diffs),
        ratios=tuple(ratios),
        kappa_bar=max(ratios) if ratios else 0.0,
        residual_l2=res_l2,
        residual_sup=res_sup,
        da_n1=lorentz.lorentz_norm(dA, float(grid.n), 1.0),
        # the last iterate norm is that of (a, B), so it holds B's gradient size
        db_n2=norms[-1].db_n2,
        rotation_distance_sup=gauge.rotation_distance_sup(dist, negdet),
        negdet_points=int(negdet.sum()),
        omega_n2=size,
        uniqueness_gap=uniqueness_gap,
    )
    return A, B, report


def measure_contraction(pmap: PicardMap, rng: np.random.Generator,
                        samples: int = 3) -> float:
    """Largest measured ratio of the map over random unit-norm state pairs."""
    grid, m = pmap.d_star_xi.grid, pmap.d_star_xi.m
    worst = 0.0
    for _ in range(samples):
        s1 = random_state(grid, m, rng)
        s2 = random_state(grid, m, rng)
        gap = _difference_norm(s1, s2).total
        t1, t2 = picard_step(s1, pmap), picard_step(s2, pmap)
        image_gap = _difference_norm(t1, t2).total
        worst = max(worst, image_gap / gap)
    return worst
