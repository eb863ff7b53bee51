"""Residual certificates for the conservation law and the existence bounds.

The conserved current J = star(A du) + (-1)^(n-1) (star B) ^ du is assembled
spectrally; the L2 norm of dJ is the scalar certificate (its grid mean
vanishes identically on the torus, so no flux-box quadrature is involved).
An independent coordinate-space assembly of the same divergence must agree
to rounding, which pins the sign tables end to end.  Refinement studies fit
the measured order of the residual against the mesh width.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import forms, gauge, lorentz, solver, synth
from .forms import MatrixForm, VectorForm
from .maps import MapField, map_gradient

__all__ = [
    "ResidualReport",
    "BoundTable",
    "conservation_current",
    "conservation_residual",
    "judge",
    "sphere_divergence_residual",
    "bound_ratios",
    "convergence_study",
]

TWO_PATH_TOL = 1e-8
FLOOR = 1e-9
# Residuals are judged against the sum of their defect sources (map tension,
# gauge harmonic part, potential representation error, solver tolerance) up
# to a fixed constant; exceeding it means a stage is wrong, not inaccurate.
BUDGET_FACTOR = 2.0


@dataclass(frozen=True)
class ResidualReport:
    """Norms of a residual density plus the defect budget that explains it."""

    l2: float
    sup: float
    budget: float = 0.0
    order: float | str | None = None
    components: tuple = ()  # (name, value) budget pairs
    coordinate_gap: float | None = None
    ladder: tuple = ()  # (resolution, l2) pairs when a study ran

    def __post_init__(self):
        for name, value in self.components:
            if value < 0:
                raise ValueError(f"budget component {name} is negative")


@dataclass(frozen=True)
class BoundTable:
    """Measured sizes entering the existence estimate, and their ratio."""

    rotation_distance_sup: float
    negdet_points: int
    da_n1: float
    db_n2: float
    omega_n2: float
    ratio: float  # nan when the connection vanishes (undefined at 0/0)

    @classmethod
    def from_sizes(cls, rotation_distance_sup: float, negdet_points: int,
                   da_n1: float, db_n2: float, omega_n2: float) -> "BoundTable":
        numerator = rotation_distance_sup + da_n1 + db_n2
        ratio = numerator / omega_n2 if omega_n2 > 0 else float("nan")
        return cls(rotation_distance_sup, negdet_points, da_n1, db_n2, omega_n2, ratio)


def _check_pair_against_map(A: MatrixForm, B: MatrixForm, u: MapField):
    if A.k != 0 or B.k != 2:
        raise ValueError("need a 0-form A and a 2-form B")
    if A.grid != u.grid or B.grid != u.grid:
        raise ValueError("pair and map live on different grids")
    if A.m != u.m or B.m != u.m:
        raise ValueError("pair values do not match the map dimension")


def conservation_current(A: MatrixForm, B: MatrixForm, u: MapField) -> VectorForm:
    """The conserved current J, a vector-valued form of degree n-1."""
    _check_pair_against_map(A, B, u)
    du = map_gradient(u)
    weight = solver.current_weight(u.grid.n)
    return (forms.hodge_star(forms.wedge(A, du))
            + weight * forms.wedge(forms.hodge_star(B), du))


def _coordinate_divergence(A: MatrixForm, B: MatrixForm, u: MapField) -> np.ndarray:
    """Independent assembly: componentwise fluxes, then a plain divergence.

    The flux along axis g is A du_g + sign * sum_b B_gb du_b, read off B's
    increasing components with B_bg = -B_gb; du is the map's one gradient.
    """
    grid = A.grid
    du = u.gradient.coeffs
    index = forms._component_index(grid.n, 2)
    divergence = np.zeros(grid.shape + (A.m,))
    for gamma in range(grid.n):
        flux = np.einsum("...ij,...j->...i", A.coeffs[0], du[gamma])
        for beta in range(grid.n):
            if beta == gamma:
                continue
            sign = 1.0 if gamma < beta else -1.0
            b = B.coeffs[index[(min(gamma, beta), max(gamma, beta))]]
            forms._add_scaled(flux, np.einsum("...ij,...j->...i", b, du[beta]),
                              sign * solver.COORDINATE_FLUX_SIGN)
        divergence += forms._spectral_axis_derivative(flux, gamma, grid.res)
    return divergence


def conservation_residual(A: MatrixForm, B: MatrixForm, u: MapField) -> ResidualReport:
    """Norms of dJ, cross-checked against the coordinate-space divergence.

    The report is a measurement; `judge` adds the budget.
    """
    grid = u.grid
    current = conservation_current(A, B, u)
    residual = forms.exterior_derivative(current)
    density = residual.coeffs[0]

    divergence = _coordinate_divergence(A, B, u)
    gap = float(np.abs(density - divergence).max())
    # Rounding in the two paths grows with the flux size and the largest
    # spectral symbol; a sign error shows up at the size of dJ itself.
    scale = max(1.0, forms.sup_norm(current) * np.pi * grid.res)
    if gap > TWO_PATH_TOL * scale:
        raise RuntimeError(
            f"conservation current paths disagree: gap {gap:.3e} "
            f"exceeds {TWO_PATH_TOL:.1e} x {scale:.3e}")

    return ResidualReport(forms.l2_norm(residual), forms.sup_norm(residual),
                          coordinate_gap=gap)


def judge(measured: ResidualReport, budget_components: tuple) -> ResidualReport:
    """The certificate: `measured` with its budget, the sum of the (name,
    value) defect pairs, which it stores.  Raises when l2 exceeds
    BUDGET_FACTOR x budget."""
    budget = float(sum(value for _, value in budget_components))
    if measured.l2 > BUDGET_FACTOR * budget:
        raise ValueError(
            f"conservation residual {measured.l2:.3e} exceeds the defect "
            f"budget {budget:.3e} (factor {BUDGET_FACTOR})")
    return dataclasses.replace(measured, budget=budget,
                               components=tuple(budget_components))


def sphere_divergence_residual(omega: MatrixForm) -> ResidualReport:
    """Divergence defect of the antisymmetric sphere currents u^i du^j - u^j du^i.

    The matrix holding all m(m-1)/2 currents (and their negates) is exactly
    the sphere connection omega = connection.omega_sphere(u), so the
    certificate is its coclosedness defect; the Frobenius aggregation counts
    both orientations of each pair, so the norms are rescaled to count every
    unordered pair once.
    """
    residual = forms.codifferential(omega)
    pair_once = 1.0 / np.sqrt(2.0)
    return ResidualReport(
        l2=pair_once * forms.l2_norm(residual),
        sup=pair_once * forms.sup_norm(residual),
    )


def bound_ratios(A: MatrixForm, B: MatrixForm, omega: MatrixForm) -> BoundTable:
    """Sizes in the existence estimate; the ratio measures its constant.

    Points with nonpositive determinant make the rotation distance ill
    posed; they are counted separately and excluded from the sup
    (gauge.rotation_distance_sup).  The pipeline takes the same sizes from
    the solver's report; this is the independent computation from the fields.
    """
    if A.k != 0 or B.k != 2 or omega.k != 1:
        raise ValueError("need a 0-form, a 2-form and a 1-form connection")
    dist, negdet, _ = gauge.rotation_distance(A.coeffs[0])
    da_n1 = lorentz.lorentz_norm(forms.exterior_derivative(A), float(A.grid.n), 1.0)
    db_n2 = solver.gradient_norm(B, 2.0)
    return BoundTable.from_sizes(
        gauge.rotation_distance_sup(dist, negdet), int(negdet.sum()), da_n1, db_n2,
        synth.lorentz_norm_of_connection(omega))


def convergence_study(evaluate, resolutions) -> ResidualReport:
    """Measured order of a residual across a doubling resolution ladder.

    evaluate(res) must return a ResidualReport computed on the same
    underlying data prolonged to the given resolution; it is called once
    per resolution, in ladder order, on the calling thread.  The slope of
    log2(l2) against log2(h) is the reported order; ladders entirely at
    the rounding floor report "floor" instead of a meaningless fit.
    """
    resolutions = tuple(int(r) for r in resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least 3 resolutions to report an order")
    for coarse, fine in zip(resolutions, resolutions[1:]):
        if fine != 2 * coarse:
            raise ValueError(
                f"resolution ladder must double: got {coarse} -> {fine}")
    reports = [evaluate(res) for res in resolutions]
    l2s = [report.l2 for report in reports]
    if max(l2s) <= FLOOR:
        order: float | str = "floor"
    else:
        log_h = -np.log2(np.array(resolutions, dtype=float))
        log_r = np.log2(np.maximum(l2s, FLOOR * 1e-3))
        order = float(np.polyfit(log_h, log_r, 1)[0])
    return dataclasses.replace(
        reports[-1], order=order, ladder=tuple(zip(resolutions, l2s)))
