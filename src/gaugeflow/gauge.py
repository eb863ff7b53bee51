"""Coulomb gauge fixing by energy minimization over pointwise rotations.

Given an antisymmetric connection 1-form Omega, find a rotation field P
minimizing the squared L2 size of the gauged connection

    Omega_P = P^T dP + P^T Omega P.

A minimizer satisfies the criticality condition d*(Omega_P) = 0, making
Omega_P co-closed and hence representable as d*(xi) for an antisymmetric
2-form potential xi (up to the constant part, which a torus cannot absorb
and which is reported separately).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forms, synth
from .forms import Grid, MatrixForm, SkewForm

__all__ = [
    "GaugeDiagnostics",
    "GaugePair",
    "GaugeConvergenceError",
    "so_exp",
    "rotation_distance",
    "minimize_gauge",
    "extract_xi",
]

ORTHOGONALITY_TOL = 1e-10
REPROJECT_TOL = 1e-12


class GaugeConvergenceError(RuntimeError):
    """Descent stalled or hit the cap; carries the (energy, residual) trace."""

    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = tuple(trace)


@dataclass(frozen=True)
class GaugeDiagnostics:
    energy: float          # squared L2 size of the gauged connection
    criticality: float     # L2 size of d*(Omega_P)
    iterations: int
    harmonic: float        # L2 size of the constant part of Omega_P
    representation: float  # L2 size of d*(xi) - Omega_P


@dataclass(frozen=True)
class GaugePair:
    """Rotation field P, potential xi and d(star xi) as so(m) channels, and
    run diagnostics.  The channels are skew by type: only P is checked."""

    P: MatrixForm
    xi: SkewForm
    d_star_xi: SkewForm
    diagnostics: GaugeDiagnostics

    def __post_init__(self):
        pointwise = self.P.coeffs[0]
        if not _orthogonality_defect(pointwise) <= ORTHOGONALITY_TOL:  # NaN fails too
            raise ValueError("rotation field is not orthogonal")
        if not np.linalg.det(pointwise).min() > 0:
            raise ValueError("rotation field has non-positive determinant")


def so_exp(skew: np.ndarray) -> np.ndarray:
    """Pointwise matrix exponential of skew-symmetric matrices.

    For m <= 3 a skew S turns one plane by theta, with theta^2 = |S|_F^2 / 2,
    so Rodrigues' formula I + sinc(theta) S + sinc(theta/2)^2 S^2 / 2 is exact
    (sinc(x) = sin(x)/x, exact at theta = 0).  Larger m diagonalizes 1j * S,
    which is Hermitian.  Either way the result is orthogonal up to rounding.
    """
    skew = np.asarray(skew)
    m = skew.shape[-1]
    if m >= 4:
        w, v = np.linalg.eigh(1j * skew)
        phase = np.exp(-1j * w)
        out = (v * phase[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
        return np.ascontiguousarray(out.real)
    theta = np.sqrt(0.5 * forms._pointwise_sq(skew, 0, skew.ndim - 2))[..., None, None]
    half = np.sinc(theta / (2.0 * np.pi))
    return np.eye(m) + np.sinc(theta / np.pi) * skew + 0.5 * half ** 2 * (skew @ skew)


def _transpose(pointwise: np.ndarray) -> np.ndarray:
    # A contiguous copy: batched products with a transposed view as operand
    # take numpy's slow path.
    return np.ascontiguousarray(np.swapaxes(pointwise, -1, -2))


def _orthogonality_defect(pointwise: np.ndarray) -> float:
    m = pointwise.shape[-1]
    gram = _transpose(pointwise) @ pointwise
    return float(np.abs(gram - np.eye(m)).max())


def _polar(pointwise: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix at each point."""
    u, _, vh = np.linalg.svd(pointwise)
    return u @ vh


def rotation_distance(pointwise: np.ndarray):
    """Pointwise Frobenius distance to the rotation group via polar projection.

    Returns (distances, negdet, sigma); negdet marks points with non-positive
    determinant, where the nearest rotation is ill-defined, and sigma holds
    each matrix's singular values.  With A = U S V^T the polar factor is
    U V^T and A - U V^T = U (S - I) V^T, so the distance is the l2 size of
    S - I: no singular vectors are taken.
    """
    sigma = np.linalg.svd(pointwise, compute_uv=False)
    dist = np.sqrt(forms._pointwise_sq(sigma - 1.0, 0, sigma.ndim - 1))
    return dist, np.linalg.det(pointwise) <= 0, sigma


def rotation_distance_sup(dist: np.ndarray, negdet: np.ndarray) -> float:
    """Sup of the rotation distance over points with positive determinant;
    nan when there are none, as the nearest rotation is ill-defined there."""
    valid = ~negdet
    return float(dist[valid].max()) if valid.any() else float("nan")


def _gauged_connection(pointwise: np.ndarray, omega: SkewForm) -> np.ndarray:
    """Coefficients of P^T (dP + Omega P) for a pointwise rotation array.

    Built one component at a time in dP's array: Omega_c expands into one
    reused array, Omega_c P + dP_c forms in another, and its product with
    P^T overwrites dP_c.  Each entry is the one the whole-array products
    give, so only dP and three components' worth are live.
    """
    grid = omega.grid
    out = forms._image(pointwise[None], forms._d_plan(grid.n, 0), grid.res)
    pt = _transpose(pointwise)
    omega_c = np.empty(pointwise.shape)
    covariant = np.empty(pointwise.shape)
    for comp, target in enumerate(out):
        np.matmul(omega.expand_into(comp, omega_c), pointwise, out=covariant)
        covariant += target
        np.matmul(pt, covariant, out=target)
    return out


def _energy(gauged: np.ndarray, grid: Grid) -> float:
    return forms._sum_products(gauged, gauged) * grid.cell


def minimize_gauge(omega: MatrixForm | synth.Connection, tol: float | None = None,
                   max_iter: int = 5000, preconditioned: bool = True) -> GaugePair:
    """The Coulomb gauge pair of omega: descend to the rotation, then extract xi.

    Riemannian gradient descent updates P <- P exp(tau * eta) along the
    skew-valued direction eta, with Armijo backtracking on tau; eta is the
    negative pointwise gradient 2 d*(Omega_P), optionally preconditioned by
    the inverse Laplacian (the gradient has zero mean, so the preconditioner
    loses nothing).  The descent stops when the criticality residual drops
    below tol.  The default tol is relative to the L2 size of omega, so
    omega = 0 converges immediately.  The final gauged connection, energy
    and criticality complete the pair as extract_xi would, so the final
    rotation is gauged and checked once.  omega is read as a
    synth.Connection, whose L2 size and sup it carries; its conversion
    refuses anything but an exactly antisymmetric 1-form.
    """
    grid = omega.grid
    omega = synth.Connection.of(omega)
    if tol is None:
        tol = 1e-6 * omega.l2
    tau = 0.1 / (1.0 + omega.sup)
    pointwise = np.broadcast_to(np.eye(omega.m), grid.shape + (omega.m, omega.m)).copy()
    trace = []
    # The accepted trial's gauged connection and energy carry over, so each
    # rotation is gauged once.
    gauged = _gauged_connection(pointwise, omega)
    energy = _energy(gauged, grid)
    for iteration in range(max_iter + 1):
        crit = forms.codifferential(MatrixForm(grid, 1, gauged))
        residual = forms.l2_norm(crit)
        trace.append((energy, residual))
        if residual <= tol:
            # The work arrays go before the completion allocates: held
            # through it, they shift the heap and the solve stage's peak RSS.
            crit = raw = grad = eta = step = None
            P = MatrixForm(grid, 0, pointwise[None])
            return _complete(P, omega, gauged, energy, residual, iteration)
        if iteration == max_iter:
            raise GaugeConvergenceError(
                f"gauge descent reached {max_iter} iterations with criticality "
                f"{residual:.3e} > tol {tol:.3e}; trace attached", trace)
        raw = crit.coeffs[0]
        grad = raw - np.swapaxes(raw, -1, -2)  # enforce skew (2x the gradient scale)
        if preconditioned:
            eta = -forms.solve_poisson(MatrixForm(grid, 0, grad[None])).coeffs[0]
        else:
            eta = -grad
        slope = forms._sum_products(grad, eta) * grid.cell
        while True:
            step = so_exp(tau * eta)
            candidate = pointwise @ step
            if _orthogonality_defect(candidate) > REPROJECT_TOL:
                candidate = _polar(candidate)
            trial = _gauged_connection(candidate, omega)
            trial_energy = _energy(trial, grid)
            # strict decrease too: an exact no-op step would otherwise tie
            if trial_energy < energy and trial_energy <= energy + 1e-4 * tau * slope:
                break
            tau *= 0.5
            if not tau >= 1e-30:  # a NaN step size stalls at once
                raise GaugeConvergenceError(
                    f"gauge descent stalled at energy {energy:.6e} with criticality "
                    f"{residual:.3e} > tol {tol:.3e}; trace attached", trace)
        pointwise = np.ascontiguousarray(candidate)
        gauged, energy = trial, trial_energy
        tau *= 1.5
    raise AssertionError("unreachable")


def extract_xi(P: MatrixForm, omega: MatrixForm | synth.Connection) -> GaugePair:
    """Complete a gauge pair: represent the gauged connection as d*(xi).

    xi = d (-lap)^{-1} Omega_P, so d*(xi) recovers exactly the co-exact part
    of Omega_P.  The constant part (not representable on the torus) and the
    total representation residual are reported in the diagnostics, with
    iteration count 0.  omega is read as a synth.Connection, whose
    conversion refuses anything but an exactly antisymmetric 1-form.
    """
    grid = omega.grid
    omega = synth.Connection.of(omega)
    gauged = _gauged_connection(P.coeffs[0], omega)
    criticality = forms.l2_norm(forms.codifferential(MatrixForm(grid, 1, gauged)))
    return _complete(P, omega, gauged, _energy(gauged, grid), criticality, 0)


def _complete(P: MatrixForm, omega: SkewForm, gauged: np.ndarray, energy: float,
              criticality: float, iterations: int) -> GaugePair:
    """extract_xi from the gauged connection of P and its energy and criticality.

    d(star xi) is taken once, on xi's expansion (matmuls on the channels
    round differently), and d*(xi) = (-1)^(n+1) star d(star xi) read off it.
    Both are kept as skew_part channels, skew by construction."""
    grid = omega.grid
    gauged = MatrixForm(grid, 1, gauged)
    harmonic = forms.l2_norm(forms.harmonic_part(gauged))
    xi = SkewForm.skew_part(forms.exterior_derivative(forms.solve_poisson(gauged)))
    d_star_xi = forms.exterior_derivative(forms.hodge_star(xi.expanded()))
    sign = 1.0 if grid.n % 2 else -1.0
    representation = forms.l2_norm(sign * forms.hodge_star(d_star_xi) - gauged)
    return GaugePair(P, xi, SkewForm.skew_part(d_star_xi), GaugeDiagnostics(
        energy, criticality, iterations, harmonic, representation))

