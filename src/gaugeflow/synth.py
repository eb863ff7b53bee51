"""Deterministic band-limited random fields and synthetic connections.

Spectra are drawn mode by mode in a fixed lexicographic order over the integer
cube, independent of the grid resolution, so the same seed describes the same
continuum field at every resolution.  Every generator requires at least four
grid points per oscillation (4 * kmax <= res).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import forms, lorentz
from .forms import Grid, MatrixForm

__all__ = [
    "Connection",
    "band_limited_field",
    "random_matrix_form",
    "smooth_cutoff",
    "synthetic_connection",
]


def _lex_positive(kappa) -> bool:
    for k in kappa:
        if k:
            return k > 0
    return False


def check_band(res: int, kmax: int, kmin: int = 1) -> None:
    """Refuse an empty band, or one with fewer than 4 points per oscillation."""
    if kmin < 1 or kmin > kmax:
        raise ValueError(f"need 1 <= kmin <= kmax, got {kmin}..{kmax}")
    if 4 * kmax > res:
        raise ValueError(f"band kmax={kmax} unresolved at res={res}")


def check_connection(support: str, exact_frac: float) -> None:
    """Refuse a support or exact fraction that synthetic_connection does not take."""
    if support not in ("full", "box"):
        raise ValueError(f"unknown support {support!r}")
    if not 0.0 <= exact_frac <= 1.0:
        raise ValueError("exact_frac must lie in [0, 1]")


def band_limited_field(grid: Grid, rng: np.random.Generator, kmax: int,
                       kmin: int = 1, shape: tuple = ()) -> np.ndarray:
    """Random real field with modes kmin <= max|kappa| <= kmax, any resolution.

    Coefficients are complex Gaussians drawn for every mode of the cube
    [-kmax, kmax]^n in lexicographic order, skipped modes included, so a
    kept mode gets the same coefficient whatever kmin is; fixed kmin/kmax
    and seed give the same continuum field at every res.
    """
    check_band(grid.res, kmax, kmin)
    spec = np.zeros(grid.shape + shape, dtype=complex)
    for kappa in itertools.product(range(-kmax, kmax + 1), repeat=grid.n):
        coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if not _lex_positive(kappa):
            continue
        if not kmin <= max(abs(k) for k in kappa) <= kmax:
            continue
        pos = tuple(k % grid.res for k in kappa)
        neg = tuple(-k % grid.res for k in kappa)
        spec[pos] += coeff
        spec[neg] += coeff.conjugate()
    axes = tuple(range(grid.n))
    return np.fft.ifftn(spec, axes=axes, norm="forward").real


def random_matrix_form(grid: Grid, k: int, m: int, rng: np.random.Generator,
                       kmax: int, antisymmetric: bool = False) -> MatrixForm:
    """Random smooth matrix-valued k-form with unit-order coefficients."""
    ncomp = len(forms.components(grid.n, k))
    coeffs = np.stack([
        band_limited_field(grid, rng, kmax, shape=(m, m)) for _ in range(ncomp)
    ])
    if antisymmetric:
        coeffs = 0.5 * (coeffs - np.swapaxes(coeffs, -1, -2))
    return MatrixForm(grid, k, coeffs)


def smooth_cutoff(grid: Grid, halfwidth: float = 0.25) -> np.ndarray:
    """C-infinity bump supported in the centered box of half-side halfwidth.

    Product of one-dimensional bumps exp(1 - 1/(1 - t^2)) with t the scaled
    distance from 1/2 along each axis; identically zero outside the box.
    """
    if not 0 < halfwidth <= 0.5:
        raise ValueError("halfwidth must lie in (0, 1/2]")
    x = np.arange(grid.res) / grid.res
    t = (x - 0.5) / halfwidth
    with np.errstate(divide="ignore", over="ignore"):
        psi = np.where(np.abs(t) < 1, np.exp(1.0 - 1.0 / np.maximum(1.0 - t * t, 1e-300)), 0.0)
    out = np.ones(grid.shape)
    for ax in range(grid.n):
        shape = [1] * grid.n
        shape[ax] = grid.res
        out = out * psi.reshape(shape)
    return out


def synthetic_connection(grid: Grid, m: int, rng: np.random.Generator,
                         kmax: int = 2, exact_frac: float = 0.0,
                         target_norm: float | None = None,
                         support: str = "full") -> MatrixForm:
    """Antisymmetric random 1-form connection with controlled Lorentz size.

    The coexact part comes from the codifferential of a random 2-form
    potential and the optional exact part from the differential of a random
    0-form, both antisymmetric-valued.  With exact_frac = 0 and full support
    the output is exactly coexact.  target_norm rescales to the requested
    L^{n,2} norm.
    """
    check_connection(support, exact_frac)
    xi0 = random_matrix_form(grid, 2, m, rng, kmax, antisymmetric=True)
    co = forms.codifferential(xi0)
    co = co * (1.0 / forms.l2_norm(co))
    omega = co * (1.0 - exact_frac)
    if exact_frac > 0.0:
        sigma = random_matrix_form(grid, 0, m, rng, kmax, antisymmetric=True)
        ex = forms.exterior_derivative(sigma)
        omega = omega + ex * (exact_frac / forms.l2_norm(ex))
    if support == "box":
        chi = smooth_cutoff(grid)
        omega = MatrixForm(grid, 1, omega.coeffs * chi[None, ..., None, None])
    if target_norm is not None:
        current = lorentz_norm_of_connection(omega)
        if current == 0.0:
            raise ValueError("cannot rescale a zero connection")
        omega = omega * (target_norm / current)
    return omega


def lorentz_norm_of_connection(omega: MatrixForm) -> float:
    """The L^{n,2} size of a connection, which controls the contraction
    regime: a Connection carries it, and the bound table takes it again."""
    return lorentz.lorentz_norm(omega, float(omega.grid.n), 2.0)


@dataclass(frozen=True, eq=False)
class Connection(forms.SkewForm):
    """A connection 1-form as so(m) channels, with its antisymmetry `defect`
    and its sizes: L^{n,2} `n2`, L2 `l2` and sup `sup`.

    `of` is the one checked conversion of so(m)-valued data: it takes the
    degree, the antisymmetry defect and each size once, on the full form it
    converts.  omega.json, the gauge's tolerance and first step, the
    solver's regime guard and its report all read these numbers; no reader
    rebuilds the full form to measure it again.
    """

    defect: float
    n2: float
    l2: float
    sup: float

    @classmethod
    def of(cls, omega) -> "Connection":
        """omega, an exactly antisymmetric MatrixForm 1-form, as a
        Connection; a Connection comes back as it is.  The defect recorded
        is 0.0, or nan on a NaN entry, which reaches the readers."""
        if isinstance(omega, cls):
            return omega
        if not isinstance(omega, MatrixForm):
            raise ValueError("a connection is built from a MatrixForm")
        if omega.k != 1:
            raise ValueError("connection must be a 1-form")
        defect = omega.antisymmetry_defect()
        if defect > 0.0:
            raise ValueError(f"connection is not exactly antisymmetric: defect {defect:.3e}")
        return cls.skew_part(omega, defect=defect, n2=lorentz_norm_of_connection(omega),
                             l2=forms.l2_norm(omega), sup=forms.sup_norm(omega))
