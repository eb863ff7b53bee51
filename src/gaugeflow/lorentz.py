"""Lorentz L^{p,q} norms of grid fields via the discrete decreasing rearrangement.

A field is reduced to its pointwise magnitude (Frobenius over values, l2 over
form components), the magnitudes are sorted nonincreasingly with one cell of
measure h^n per sample, and the Lorentz integral is evaluated exactly on the
resulting step function.  No smoothing is applied, so indicator fields obey
the closed-form value (p/q)^(1/q) a^(1/p) up to the cell quantization of a.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import forms

__all__ = ["lorentz_norm"]


def _magnitudes(field) -> tuple:
    """Pointwise magnitude samples and the cell measure of one sample."""
    if isinstance(field, (forms.MatrixForm, forms.VectorForm)):
        return forms.pointwise_norm(field).ravel(), field.grid.cell
    arr = np.asarray(field, dtype=float)
    # A bare array is read as magnitudes sampled uniformly on unit volume.
    return np.abs(arr).ravel(), 1.0 / arr.size


@lru_cache(maxsize=32)
def _step_weights(size: int, cell: float, p: float, q: float) -> np.ndarray:
    """Per-sample weights t_i^{1/p} (q = inf) or t_i^{q/p} - t_{i-1}^{q/p}."""
    cum = np.arange(1, size + 1, dtype=float) * cell
    if math.isinf(q):
        weights = cum ** (1.0 / p)
    else:
        weights = np.diff(cum ** (q / p), prepend=0.0)
    weights.setflags(write=False)
    return weights


def lorentz_norm(field, p: float, q: float) -> float:
    """Discrete L^{p,q} norm, exact on the step-function rearrangement.

    The magnitudes v_i are sorted nonincreasingly and sample i covers the
    measures up to t_i = i * cell.  For finite q this is
    ((p/q) sum v_i^q (t_i^{q/p} - t_{i-1}^{q/p}))^{1/q}; for q = inf it is
    sup_i t_i^{1/p} v_i.
    """
    if not p > 1:
        raise ValueError(f"Lorentz index p must exceed 1, got {p}")
    if not q >= 1:
        raise ValueError(f"Lorentz index q must be >= 1, got {q}")
    vals, cell = _magnitudes(field)
    vals = np.sort(vals)[::-1]
    weights = _step_weights(vals.size, cell, float(p), float(q))
    if math.isinf(q):
        return float(np.max(weights * vals, initial=0.0))
    return float((p / q * np.sum(vals ** q * weights)) ** (1.0 / q))
