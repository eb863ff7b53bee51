"""Antisymmetric connection 1-forms for sphere-valued maps.

For a unit-sphere map the second fundamental form packages the equation
-lap(u) = |grad u|^2 u as -lap(u) = Omega . grad(u) with an antisymmetric
matrix of 1-forms Omega.  The same Omega arises from contracting a normal
frame of the target along the map; both constructions ship here, plus the
residual that certifies the equation for a given (u, Omega) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import forms
from .forms import MatrixForm
from .maps import MapField, map_gradient

__all__ = [
    "NormalFrame",
    "sphere_frame",
    "omega_sphere",
    "omega_from_frame",
    "connection_residual",
]

@dataclass(frozen=True)
class NormalFrame:
    """Orthonormal frame of the target's normal bundle, as two callbacks.

    evaluate(points) -> (count, ..., m): frame vectors at each point;
    jacobian(points) -> (count, ..., m, m): entry [..., l, j] is the
    derivative of component l with respect to target coordinate j.
    Both receive arrays of points with arbitrary leading axes and must be
    reentrant.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def sphere_frame() -> NormalFrame:
    """The outward unit normal nu(y) = y of the sphere; jacobian = identity."""

    def evaluate(points):
        return np.asarray(points, dtype=np.float64)[None]

    def jacobian(points):
        points = np.asarray(points, dtype=np.float64)
        m = points.shape[-1]
        return np.broadcast_to(np.eye(m), points.shape[:-1] + (m, m))[None]

    return NormalFrame(evaluate, jacobian)


def _call_frame(callback, values: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.asarray(callback(values), dtype=np.float64)
    except Exception as exc:
        # scan for the first offending point so the error names a location
        flat = values.reshape(-1, values.shape[-1])
        for idx, y in enumerate(flat):
            try:
                callback(y[None])
            except Exception:
                loc = np.unravel_index(idx, values.shape[:-1])
                raise ValueError(
                    f"frame {what} failed at grid point {tuple(int(i) for i in loc)}, "
                    f"y={y.tolist()}: {exc}") from exc
        raise


def omega_sphere(u: MapField) -> MatrixForm:
    """Connection Omega^i_j = u^i du^j - u^j du^i of a unit-sphere map."""
    if not u.unit_sphere:
        raise ValueError("sphere connection needs a unit-sphere map")
    du = map_gradient(u).coeffs  # (n, ..., m)
    outer = u.values[..., :, None] * du[..., None, :]
    # X - X^T is antisymmetric bit for bit, since IEEE a - b is -(b - a).
    return MatrixForm(u.grid, 1, outer - np.swapaxes(outer, -1, -2))


def omega_from_frame(u: MapField, frame: NormalFrame) -> MatrixForm:
    """Connection from a normal frame contracted along the map.

    Omega^i_j = sum over frame fields and target index l of
    (nu^i d_j(nu^l) - nu^j d_i(nu^l)) du^l, all frame quantities evaluated
    at u.  On the sphere this reduces to omega_sphere.
    """
    nu = _call_frame(frame.evaluate, u.values, "evaluation")
    jac = _call_frame(frame.jacobian, u.values, "jacobian")
    du = map_gradient(u).coeffs
    term = np.einsum("f...i,f...lj,a...l->a...ij", nu, jac, du, optimize=True)
    return MatrixForm(u.grid, 1, term - np.swapaxes(term, -1, -2))


def contract_gradient(omega: MatrixForm, u: MapField) -> np.ndarray:
    """Pointwise contraction (Omega . grad u)^i = sum_j <Omega^i_j, du^j>."""
    if omega.grid != u.grid:
        raise ValueError("connection and map live on different grids")
    if omega.k != 1 or omega.m != u.m:
        raise ValueError("connection must be a 1-form with values matching the map")
    du = map_gradient(u).coeffs
    return np.einsum("a...ij,a...j->...i", omega.coeffs, du)


def connection_residual(u: MapField, omega: MatrixForm) -> float:
    """L2 size of lap(u) + Omega . grad(u); zero iff the pair satisfies the equation."""
    lap = forms.laplacian(u.as_form()).coeffs[0]
    defect = lap + contract_gradient(omega, u)
    return float(np.sqrt(forms._sum_products(defect, defect) * u.grid.cell))
