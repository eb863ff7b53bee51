"""Sphere-valued maps on the torus: generators, tension, and heat-flow relaxation.

A map is an m-vector per grid point constrained to the unit sphere.  Great
circles composed with linear phases are exact harmonic maps and serve as the
reference family; approximately harmonic maps come from relaxing perturbed
maps by the semi-implicit sphere heat flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import forms, synth
from .forms import Grid, VectorForm

__all__ = [
    "MapField",
    "constant_map",
    "geodesic_map",
    "perturbed_map",
    "heat_flow_relax",
    "tension_residual",
    "dirichlet_energy",
    "map_gradient",
]


@dataclass(frozen=True, eq=False)
class MapField:
    """An m-vector per grid point, optionally pinned to the unit sphere."""

    grid: Grid
    values: np.ndarray  # shape (res, ..., res, m)
    unit_sphere: bool = True

    def __post_init__(self):
        arr = np.ascontiguousarray(self.values, dtype=np.float64)
        if arr.shape[:-1] != self.grid.shape or arr.ndim != self.grid.n + 1:
            raise ValueError(f"map values have shape {arr.shape}, expected {self.grid.shape} + (m,)")
        if self.unit_sphere:
            defect = np.abs(forms._pointwise_sq(arr, 0, self.grid.n) - 1.0).max()
            if not defect <= 1e-12:  # a NaN entry fails too
                raise ValueError(f"map leaves the unit sphere by {defect:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def m(self) -> int:
        return self.values.shape[-1]

    def as_form(self) -> VectorForm:
        """The map as a vector-valued 0-form."""
        return VectorForm(self.grid, 0, self.values[None])

    @cached_property
    def gradient(self) -> VectorForm:
        """Spectral differential du as a vector-valued 1-form, taken once per map."""
        return forms.exterior_derivative(self.as_form())


def constant_map(grid: Grid, m: int) -> MapField:
    """The map that sends every point to e_0."""
    values = np.zeros(grid.shape + (m,))
    values[..., 0] = 1.0
    return MapField(grid, values)


def check_wave(grid: Grid, wave) -> None:
    """Refuse a wave vector that is zero, of the wrong length, or unresolved."""
    wave = np.asarray(wave, dtype=int)
    if wave.shape != (grid.n,) or not wave.any():
        raise ValueError(
            f"wave must be a nonzero integer vector of length {grid.n}")
    if 4.0 * float(np.linalg.norm(wave)) > grid.res:
        raise ValueError(f"wave {wave.tolist()} unresolved at res={grid.res}")


def check_noise(delta: float) -> None:
    """Refuse a perturbation amplitude that perturbed_map does not take."""
    if not 0.0 <= delta <= 0.2:
        raise ValueError("noise amplitude must lie in [0, 0.2]")


def geodesic_map(grid: Grid, m: int, wave) -> MapField:
    """Great-circle map u = cos(2 pi kappa.x) e_0 + sin(2 pi kappa.x) e_1.

    An exact harmonic map for any nonzero integer wave vector kappa; the
    wave must be resolved by at least four points per oscillation.
    """
    wave = np.asarray(wave, dtype=int)
    if m < 2:
        raise ValueError("a great circle needs m >= 2")
    check_wave(grid, wave)
    phase = 2 * np.pi * np.tensordot(wave, grid.coords(), axes=1)
    values = np.zeros(grid.shape + (m,))
    values[..., 0] = np.cos(phase)
    values[..., 1] = np.sin(phase)
    return MapField(grid, values)


def perturbed_map(base: MapField, delta: float, seed: int,
                  kmin: int = 1, kmax: int = 4) -> MapField:
    """Band-limited tangent noise of relative L2 size delta, renormalized.

    The noise is projected onto the tangent space of the sphere at the base
    map before renormalization, so delta controls the actual displacement.
    Deterministic in seed; delta = 0 returns the base unchanged.
    """
    check_noise(delta)
    if delta == 0.0:
        return base
    rng = np.random.default_rng(seed)
    noise = synth.band_limited_field(base.grid, rng, kmax, kmin, (base.m,))
    radial = (noise * base.values).sum(axis=-1, keepdims=True)
    tangent = noise - radial * base.values
    scale = math.sqrt(forms._sum_products(tangent, tangent) * base.grid.cell)
    if scale == 0.0:
        raise ValueError("tangent projection annihilated the noise draw")
    return _renormalize(base.grid, base.values + (delta / scale) * tangent)


def _renormalize(grid: Grid, values: np.ndarray) -> MapField:
    norms = np.sqrt(forms._pointwise_sq(values, 0, grid.n))
    if norms.min() < 0.5:
        raise ValueError("renormalization would blow up: a value came too close to 0")
    return MapField(grid, values / norms[..., None])


def map_gradient(u: MapField) -> VectorForm:
    """Spectral differential du as a vector-valued 1-form."""
    return u.gradient


def dirichlet_energy(u: MapField) -> float:
    du = map_gradient(u).coeffs
    return 0.5 * forms._sum_products(du, du) * u.grid.cell


def _gradient_sq(u: MapField) -> np.ndarray:
    """|grad u|^2 at each grid point."""
    return forms._pointwise_sq(map_gradient(u).coeffs, 1, u.grid.n)


def _tension_field(u: MapField) -> np.ndarray:
    """Pointwise sphere tension lap(u) + |grad u|^2 u."""
    lap = forms.laplacian(u.as_form()).coeffs[0]
    return lap + _gradient_sq(u)[..., None] * u.values


def tension_residual(u: MapField) -> float:
    """L2 norm of the sphere tension defect; zero iff discretely harmonic."""
    if not u.unit_sphere:
        raise ValueError("tension residual needs a unit-sphere map")
    t = _tension_field(u)
    return float(np.sqrt(forms._sum_products(t, t) * u.grid.cell))


def _stability_guard(grid: Grid) -> float:
    return grid.h ** 2 / 4.0


def flow_plan(grid: Grid, time: float, steps: int = 0) -> tuple:
    """(tau, steps) of a heat flow over `time`; steps = 0 takes the fewest
    steps whose tau passes heat_flow_relax's stability guard."""
    if not steps:
        guard = _stability_guard(grid)
        steps = math.ceil(time / guard)
        if time / steps > guard:  # time / guard rounded down onto an integer
            steps += 1
    return time / steps, steps


def heat_flow_relax(u0: MapField, tau: float | None = None, steps: int = 100) -> MapField:
    """Semi-implicit sphere heat flow with projection to the sphere.

    Each step solves (1 - tau lap) v = u + tau |grad u|^2 u spectrally and
    renormalizes.  Dirichlet energy must not increase across accepted steps:
    an increasing step halves tau and retries (up to 20 halvings), and the
    nominal tau is restored for the next step.
    """
    grid = u0.grid
    stability = _stability_guard(grid)
    if tau is None:
        tau = stability
    if tau <= 0 or tau > stability:
        raise ValueError(f"step {tau:.3e} outside the stability guard {stability:.3e}")
    sym = forms._laplace_symbol(grid.n, grid.res)
    u = u0
    energy = dirichlet_energy(u)
    for _ in range(steps):
        trial_tau = tau
        grad2 = _gradient_sq(u)
        for _ in range(21):
            rhs = u.values + trial_tau * grad2[..., None] * u.values
            v = forms._apply_symbol(rhs, 1.0 / (1.0 - trial_tau * sym), 0)
            candidate = _renormalize(grid, v)
            cand_energy = dirichlet_energy(candidate)
            # tolerate rounding wiggle at exact fixed points
            if cand_energy <= energy * (1.0 + 1e-12):
                break
            trial_tau *= 0.5
        else:
            raise RuntimeError("flow stagnated: energy would not decrease after 20 halvings")
        u, energy = candidate, cand_energy
    return u
