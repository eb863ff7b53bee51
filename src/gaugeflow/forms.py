"""Matrix- and vector-valued differential forms on the flat periodic torus.

Fields live on a uniform grid over [0, 1)^n with 2 <= n <= 4.  All calculus
(exterior derivative, codifferential, Hodge star, Poisson solves) is spectral:
derivatives act on the trigonometric interpolant, so the structural identities
d(d(omega)) = 0, <d a, b> = <a, d* b>, and the Hodge projections hold to
rounding instead of to a discretization order.  The Nyquist bin is zeroed on
every axis, so derivatives stay real and exactly skew-adjoint.

A first derivative along one axis is one real matmul by the cached res x res
differentiation matrix, the circulant form of that spectral derivative; it is
bitwise skew, and constants stay exactly flat.  The operators whose symbol does
not separate by axis (Laplacian, Poisson solve, harmonic part, the heat-flow
step) take one matmul per axis by the cached real orthonormal Fourier basis,
a pointwise symbol on the full (res,)*n table, and one matmul per axis back;
constants come out exact.  No numpy.fft transform is taken, and reruns are
byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Grid",
    "MatrixForm",
    "VectorForm",
    "SkewForm",
    "components",
    "exterior_derivative",
    "codifferential",
    "hodge_star",
    "wedge",
    "laplacian",
    "solve_poisson",
    "project_closed",
    "harmonic_part",
    "inner",
    "l2_norm",
    "pointwise_norm",
    "sup_norm",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the unit torus [0, 1)^n."""

    n: int
    res: int

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ValueError(f"dimension must be between 2 and 4, got {self.n}")
        if self.res < 8 or self.res % 2:
            raise ValueError(f"resolution must be even and >= 8, got {self.res}")
        if self.res ** self.n > 2 ** 31:
            raise ValueError(f"{self.res}^{self.n} points exceed the address budget")

    @property
    def h(self) -> float:
        return 1.0 / self.res

    @property
    def shape(self) -> tuple:
        return (self.res,) * self.n

    @property
    def cell(self) -> float:
        """Measure of a single grid cell."""
        return float(self.res) ** -self.n

    def coords(self) -> np.ndarray:
        """Coordinates of shape (n, res, ..., res) with values in [0, 1)."""
        axes = [np.arange(self.res) / self.res] * self.n
        return np.stack(np.meshgrid(*axes, indexing="ij"))


@lru_cache(maxsize=None)
def _fourier_basis(res: int) -> tuple:
    # Real orthonormal Fourier basis, one function per row: the mean, then
    # cos and sin of each wave 0 < k < res/2, then the Nyquist alternation.
    # Its transpose is its inverse.  `wave` holds each row's 2 pi k, with 0
    # for the Nyquist row as the differentiation matrix zeroes that bin.
    j = np.arange(res)
    k = np.arange(1, res // 2)
    phase = 2.0 * np.pi * (np.outer(k, j) % res) / res
    basis = np.empty((res, res))
    basis[0] = 1.0 / math.sqrt(res)
    basis[1:-1:2] = math.sqrt(2.0 / res) * np.cos(phase)
    basis[2:-1:2] = math.sqrt(2.0 / res) * np.sin(phase)
    basis[-1] = (-1.0) ** j / math.sqrt(res)
    wave = np.zeros(res)
    wave[1:-1:2] = wave[2:-1:2] = 2.0 * np.pi * k
    for arr in (basis, wave):
        arr.setflags(write=False)
    return basis, wave


@lru_cache(maxsize=None)
def _derivative_matrix(res: int) -> np.ndarray:
    # D_jk = pi (-1)^(j-k) cot(pi (j-k) / res), the spectral derivative with
    # the Nyquist bin zeroed as a real circulant (Trefethen, Spectral Methods
    # in MATLAB, ch. 3).  Offset res - d holds the exact negative of offset d
    # and offsets 0 and res/2 hold 0.0, so D == -D.T bit for bit.
    d = np.arange(1, res // 2)
    column = np.zeros(res)
    column[d] = np.pi * (-1.0) ** d / np.tan(np.pi * d / res)
    column[res - d] = -column[d]
    mat = column[np.subtract.outer(np.arange(res), np.arange(res)) % res]
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def _negated_derivative_matrix(res: int) -> np.ndarray:
    # (-D) @ x == -(D @ x) bit for bit, so a negative sign costs no temporary.
    mat = -_derivative_matrix(res)
    mat.setflags(write=False)
    return mat


def _lines(arr: np.ndarray, axis: int, res: int) -> np.ndarray:
    """View of arr as (lines before, res, lines after) along `axis`."""
    return arr.reshape(math.prod(arr.shape[:axis]), res, -1)


def _differentiate_into(arr: np.ndarray, axis: int, res: int, matrix: np.ndarray,
                        work: np.ndarray, out: np.ndarray) -> None:
    """out = matrix applied along `axis` of arr: one batched matmul.

    work and out have arr's shape.  D's rows sum to zero only up to
    rounding; differentiating each line minus its first sample, formed in
    work, keeps constants exactly flat.
    """
    lines = _lines(arr, axis, res)
    flat = work.reshape(lines.shape)
    np.subtract(lines, lines[:, :1], out=flat)
    np.matmul(matrix, flat, out=_lines(out, axis, res))


def _spectral_axis_derivative(arr: np.ndarray, axis: int, res: int) -> np.ndarray:
    """d/dx_axis of arr: one batched matmul by the differentiation matrix."""
    out = np.empty(arr.shape)
    _differentiate_into(arr, axis, res, _derivative_matrix(res), np.empty(arr.shape), out)
    return out


def _gradient_sq(components, n: int, res: int) -> np.ndarray:
    """Pointwise sum of squares of every first partial of every component.

    `components` yields coefficient components, spatial axes first, one at
    a time.  Each partial goes through one reused work array and one reused
    partial array, so two components' worth is live beside the sum.
    """
    matrix = _derivative_matrix(res)
    total = work = part = None
    for comp in components:
        if work is None:
            work, part = np.empty(comp.shape), np.empty(comp.shape)
        for axis in range(n):
            _differentiate_into(comp, axis, res, matrix, work, part)
            square = _pointwise_sq(part, 0, n)
            if total is None:
                total = square
            else:
                total += square
    return total


@lru_cache(maxsize=None)
def components(n: int, k: int) -> tuple:
    """Increasing multi-indices of length k over axes 0..n-1, lexicographic."""
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def _component_index(n: int, k: int) -> dict:
    return {c: i for i, c in enumerate(components(n, k))}


@dataclass(frozen=True, eq=False)
class _Form:
    """Degree-k form with `_value_ndim` value axes at every grid point.

    The coefficient array has shape (C(n,k), res, ..., res) plus the value
    axes, with the component axis ordered by increasing multi-index.  The
    constructor takes ownership of the array and freezes it.
    """

    grid: Grid
    k: int
    coeffs: np.ndarray

    _value_ndim = 0

    def __post_init__(self):
        grid, k = self.grid, self.k
        if not 0 <= k <= grid.n:
            raise ValueError(f"form degree {k} out of range for n={grid.n}")
        arr = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        lead = (len(components(grid.n, k)),) + grid.shape
        if arr.ndim != grid.n + 1 + self._value_ndim or arr.shape[: grid.n + 1] != lead:
            raise ValueError(
                f"coefficients have shape {arr.shape}, expected {lead} plus value axes"
            )
        if self._value_ndim == 2 and arr.shape[-2] != arr.shape[-1]:
            raise ValueError("matrix values must be square")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zeros(cls, grid: Grid, k: int, m: int):
        shape = (len(components(grid.n, k)),) + grid.shape + (m,) * cls._value_ndim
        return cls(grid, k, np.zeros(shape))

    def _like(self, coeffs, k=None):
        return type(self)(self.grid, self.k if k is None else k, coeffs)

    def _check_compatible(self, other):
        if (
            type(other) is not type(self)
            or other.grid != self.grid
            or other.k != self.k
            or other.coeffs.shape != self.coeffs.shape
        ):
            raise ValueError("incompatible forms")

    def __add__(self, other):
        self._check_compatible(other)
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check_compatible(other)
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, c):
        return self._like(self.coeffs * float(c))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.coeffs)

    @property
    def m(self) -> int:
        return self.coeffs.shape[-1]


class MatrixForm(_Form):
    """Degree-k form whose coefficients are m x m matrices at every grid point."""

    _value_ndim = 2

    def antisymmetry_defect(self) -> float:
        """Largest pointwise entry of coeffs + coeffs^T.

        Each component's |c + c^T| goes through one reused array, and the
        maxima combine by np.maximum, so a NaN entry still gives nan.
        """
        buf = np.empty(self.coeffs.shape[1:])
        worst = 0.0
        for comp in self.coeffs:
            np.add(comp, np.swapaxes(comp, -1, -2), out=buf)
            worst = np.maximum(worst, np.abs(buf, out=buf).max())
        return float(worst)


class VectorForm(_Form):
    """Degree-k form whose coefficients are m-vectors at every grid point."""

    _value_ndim = 1


@lru_cache(maxsize=None)
def _skew_basis(m: int) -> np.ndarray:
    # Row q is E_ij - E_ji, flattened row-major, for the q-th strictly upper
    # (i, j) in row-major order: channels times this matrix are the full
    # matrices.
    basis = np.zeros((m * (m - 1) // 2, m * m))
    for q, (i, j) in enumerate(itertools.combinations(range(m), 2)):
        basis[q, i * m + j] = 1.0
        basis[q, j * m + i] = -1.0
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True, eq=False)
class SkewForm:
    """Degree-k so(m)-valued form, held as its strictly upper entries.

    `upper` has shape (C(n,k), res, ..., res, m(m-1)/2), the entries of each
    point's matrix above the diagonal in row-major order.  `skew_part` builds
    the channels from a MatrixForm's skew part, so they are skew by
    construction; synth.Connection.of is where a connection's antisymmetry
    is checked.  Readers expand one component at a time into a reused
    buffer: the kept entries above the diagonal, their negatives below it
    and +0.0 on it, so every nonzero entry is bitwise the original and every
    zero is +0.0.  Measurements and the linear calculus run on the full form.
    """

    grid: Grid
    k: int
    m: int
    upper: np.ndarray

    def __post_init__(self):
        shape = (len(components(self.grid.n, self.k)),) + self.grid.shape
        if self.upper.shape != shape + (self.m * (self.m - 1) // 2,):
            raise ValueError(f"skew channels have shape {self.upper.shape}")
        self.upper.setflags(write=False)

    @classmethod
    def skew_part(cls, form: MatrixForm, **fields) -> "SkewForm":
        """The channels of (c - c^T) / 2, skew by construction: on an exactly
        antisymmetric c each is c's own entry, up to the sign of a zero.
        `fields` are a subclass's own fields."""
        rows, cols = np.triu_indices(form.m, 1)
        # in place: a freed channel-size temporary moves glibc's mmap
        # threshold, and with it the solve stage's peak RSS
        upper = form.coeffs[..., rows, cols]
        upper -= form.coeffs[..., cols, rows]
        upper *= 0.5
        return cls(form.grid, form.k, form.m, upper, **fields)

    @property
    def shape(self) -> tuple:
        """Coefficient shape of the full form."""
        return self.upper.shape[:-1] + (self.m, self.m)

    def expand_into(self, comp: int, out: np.ndarray) -> np.ndarray:
        """Component `comp` as full matrices in out, of shape grid + (m, m).

        One product by the so(m) basis: each entry is one channel times
        +-1 plus exact zeros, so every nonzero entry is exact; adding 0.0
        then makes every zero +0.0, whatever signs the product gave them.
        """
        m = self.m
        flat = out.reshape(-1, m * m, copy=False)
        np.matmul(self.upper[comp].reshape(flat.shape[0], -1), _skew_basis(m), out=flat)
        flat += 0.0
        return out

    def expanded(self) -> MatrixForm:
        """The full form."""
        out = np.empty(self.shape)
        for comp, target in enumerate(out):
            self.expand_into(comp, target)
        return MatrixForm(self.grid, self.k, out)


@lru_cache(maxsize=None)
def _deriv_table(n: int, k: int) -> tuple:
    # Entries (comp_in, axis, comp_out, sign): inserting dx_axis into the
    # sorted multi-index at position p contributes sign (-1)^p.
    out_index = _component_index(n, k + 1)
    table = []
    for ia, comp in enumerate(components(n, k)):
        for axis in range(n):
            if axis in comp:
                continue
            merged = tuple(sorted(comp + (axis,)))
            sign = -1.0 if merged.index(axis) % 2 else 1.0
            table.append((ia, axis, out_index[merged], sign))
    return tuple(table)


def _grouped(table: tuple, nout: int) -> tuple:
    """A (comp_in, axis, comp_out, sign) table as a plan with output sign +1.

    A plan holds, for each output component in order, its (comp_in, axis,
    sign) terms in the table's order and the sign applied after their sum.
    """
    terms = [[] for _ in range(nout)]
    for ia, axis, io, sign in table:
        terms[io].append((ia, axis, sign))
    return tuple((tuple(group), 1.0) for group in terms)


@lru_cache(maxsize=None)
def _d_plan(n: int, k: int) -> tuple:
    return _grouped(_deriv_table(n, k), len(components(n, k + 1)))


def _sum_partials(coeffs: np.ndarray, terms: tuple, res: int, target: np.ndarray,
                  work: np.ndarray, prod: np.ndarray | None) -> None:
    """target = the sum of sign * d/dx_axis coeffs[comp_in] over the terms.

    The first term is a matmul straight into target; later ones go through
    prod, one component's size like work, and are added.
    """
    matrices = {1.0: _derivative_matrix(res), -1.0: _negated_derivative_matrix(res)}
    for j, (ia, axis, sign) in enumerate(terms):
        _differentiate_into(coeffs[ia], axis, res, matrices[sign], work,
                            prod if j else target)
        if j:
            target += prod


def _image(coeffs: np.ndarray, plan: tuple, res: int) -> np.ndarray:
    """A derivative plan applied to coefficients, in a fresh writable array.

    Each output is summed in place and then negated if its sign is -1; the
    sign comes after the sum, so even a zero keeps it.  One reused work
    array and, where an output has several terms, one reused product array
    serve every term.
    """
    out = np.empty((len(plan),) + coeffs.shape[1:])
    work = np.empty(coeffs.shape[1:])
    prod = np.empty_like(work) if any(len(terms) > 1 for terms, _ in plan) else None
    for target, (terms, sign) in zip(out, plan):
        _sum_partials(coeffs, terms, res, target, work, prod)
        if sign < 0:
            np.negative(target, out=target)
    return out


def _add_image(target: np.ndarray, coeffs: np.ndarray, plan: tuple, res: int,
               weight: float) -> None:
    """target += weight * (a derivative plan applied to coefficients).

    Each output is summed in one reused component array and added times
    weight * sign, so the image is never held whole; x - y is bitwise
    x + (-y), so target ends as it would with _image's result added.
    """
    comp = np.empty(coeffs.shape[1:])
    work = np.empty_like(comp)
    prod = np.empty_like(comp) if any(len(terms) > 1 for terms, _ in plan) else None
    for out, (terms, sign) in zip(target, plan):
        _sum_partials(coeffs, terms, res, comp, work, prod)
        _add_scaled(out, comp, weight * sign)


def exterior_derivative(form):
    if form.k >= form.grid.n:
        raise ValueError("top-degree form")
    out = _image(form.coeffs, _d_plan(form.grid.n, form.k), form.grid.res)
    return form._like(out, form.k + 1)


@lru_cache(maxsize=None)
def _star_table(n: int, k: int) -> tuple:
    # *(dx_A) = sign(A, A^c) dx_{A^c}; the sign is the parity of inversions
    # between the block A and its complement.
    out_index = _component_index(n, n - k)
    table = []
    for ia, comp in enumerate(components(n, k)):
        rest = tuple(ax for ax in range(n) if ax not in comp)
        inv = sum(1 for a in comp for b in rest if a > b)
        table.append((ia, out_index[rest], -1.0 if inv % 2 else 1.0))
    return tuple(table)


def hodge_star(form):
    n, k = form.grid.n, form.k
    nout = len(components(n, n - k))
    out = np.empty((nout,) + form.coeffs.shape[1:])
    for ia, io, sign in _star_table(n, k):
        np.multiply(form.coeffs[ia], sign, out=out[io])
    return form._like(out, n - k)


@lru_cache(maxsize=None)
def _d_star_plan(n: int, k: int) -> tuple:
    # d * on k-forms: each entry of d on (n-k)-forms, read through the star
    # of its input, in d's order, so every output sums its terms as d does
    # on the starred form, with no copy of the starred form.
    star_in = {io: (ia, s) for ia, io, s in _star_table(n, k)}
    table = [(star_in[ia][0], axis, io, star_in[ia][1] * s)
             for ia, axis, io, s in _deriv_table(n, n - k)]
    return _grouped(table, len(components(n, n - k + 1)))


@lru_cache(maxsize=None)
def _codiff_plan(n: int, k: int) -> tuple:
    # d* = (-1)^(n(k+1)+1) * d * on k-forms: d * relabelled by the output
    # star.  The output star's sign and d*'s own sign come after the sum,
    # as in * d *, so even a zero keeps its sign.
    sign = -1.0 if (n * (k + 1) + 1) % 2 else 1.0
    d_star = _d_star_plan(n, k)
    plan = [None] * len(components(n, k - 1))
    for ia, io, s in _star_table(n, n - k + 1):
        plan[io] = (d_star[ia][0], sign * s)
    return tuple(plan)


@lru_cache(maxsize=None)
def _star_codiff_plan(n: int, k: int) -> tuple:
    # * d* = sigma d * on k-forms, with sigma = (-1)^(n(k+1)+1) from d*
    # times (-1)^((k-1)(n-k+1)) from * * on (n-k+1)-forms.
    sigma = -1.0 if (n * (k + 1) + 1 + (k - 1) * (n - k + 1)) % 2 else 1.0
    return tuple((terms, sigma) for terms, _ in _d_star_plan(n, k))


def codifferential(form):
    """Codifferential d* = (-1)^(n(k+1)+1) * d *; on 1-forms, minus divergence."""
    if form.k == 0:
        raise ValueError("codifferential of 0-form")
    out = _image(form.coeffs, _codiff_plan(form.grid.n, form.k), form.grid.res)
    return form._like(out, form.k - 1)


def _add_scaled(target: np.ndarray, term: np.ndarray, weight: float) -> None:
    """target += weight * term in place, with no temporary for weight +-1."""
    if weight == 1.0:
        target += term
    elif weight == -1.0:
        target -= term
    else:
        target += weight * term


@lru_cache(maxsize=None)
def _wedge_table(n: int, p: int, q: int) -> tuple:
    # Entries (comp_a, comp_b, comp_out, sign); blocks sharing an axis drop.
    out_index = _component_index(n, p + q)
    table = []
    for ia, ca in enumerate(components(n, p)):
        for ib, cb in enumerate(components(n, q)):
            if set(ca) & set(cb):
                continue
            inv = sum(1 for a in ca for b in cb if a > b)
            sign = -1.0 if inv % 2 else 1.0
            table.append((ia, ib, out_index[tuple(sorted(ca + cb))], sign))
    return tuple(table)


@lru_cache(maxsize=None)
def _wedge_schedule(n: int, p: int, q: int) -> tuple:
    # The wedge table by right component, last to first: (comp_b, terms)
    # with terms (comp_a, comp_out, sign, first), where `first` marks the
    # term that starts its output.  Within one output the table's terms
    # take increasing left blocks, whose complements, the right blocks,
    # decrease, so this order still sums each output in the table's order.
    table = _wedge_table(n, p, q)
    started = set()
    schedule = []
    for ib in reversed(range(len(components(n, q)))):
        terms = []
        for ia, jb, io, sign in table:
            if jb == ib:
                terms.append((ia, io, sign, io not in started))
                started.add(io)
        schedule.append((ib, tuple(terms)))
    return tuple(schedule)


def wedge(a: MatrixForm, b):
    """Wedge product with values multiplied in the written order.

    Matrix times matrix when b is matrix-valued, matrix times vector when b
    is vector-valued; the form indices combine with the alternating sign.
    """
    if not isinstance(a, MatrixForm):
        raise ValueError("left wedge factor must be matrix-valued")
    if a.grid != b.grid:
        raise ValueError("wedge factors live on different grids")
    if a.k + b.k > a.grid.n:
        raise ValueError("degree overflow")
    if a.m != b.m:
        raise ValueError("value size mismatch")
    return b._like(_wedge_coeffs(a, b), a.k + b.k)


@dataclass(frozen=True, eq=False)
class _Partials:
    """The 1-form d of a 0-form whose one component is `values`, taken one
    partial at a time.

    expand_into(c, out) writes d/dx_c of values into out exactly as
    exterior_derivative writes its component c; `work`, of values' shape,
    is the differentiation's scratch array.  A wedge reads each partial
    once, so d is never held whole.
    """

    grid: Grid
    values: np.ndarray
    work: np.ndarray

    k = 1

    @property
    def shape(self) -> tuple:
        """Coefficient shape of the full 1-form."""
        return (self.grid.n,) + self.values.shape

    def expand_into(self, comp: int, out: np.ndarray) -> np.ndarray:
        res = self.grid.res
        _differentiate_into(self.values, comp, res, _derivative_matrix(res), self.work, out)
        return out


def _wedge_coeffs(a: MatrixForm, b, right: np.ndarray | None = None,
                  prod: np.ndarray | None = None) -> np.ndarray:
    """Coefficients of a ^ b in a fresh, writable array.

    b is a form, or a source that writes one component at a time into a
    reused array: a SkewForm expands it, a _Partials differentiates it.
    Each component of b is read once, last to first, and every term that
    reads it is taken then; each output still sums its terms in the
    table's order.  An output's first term is a product straight into it,
    later ones go through one reused product array.  `right` and `prod`,
    one component's size, are scratch arrays a caller may share between
    wedges.  Matrix times vector runs on einsum, which beats a batched
    matmul by a column at these shapes.
    """
    matvec = isinstance(b, VectorForm)
    held = isinstance(b, _Form)
    shape = b.coeffs.shape if held else b.shape
    out = np.empty((len(components(a.grid.n, a.k + b.k)),) + shape[1:])
    if not held and right is None:
        right = np.empty(out.shape[1:])
    for ib, terms in _wedge_schedule(a.grid.n, a.k, b.k):
        comp = b.coeffs[ib] if held else b.expand_into(ib, right)
        for ia, io, sign, first in terms:
            if not first and prod is None:
                prod = np.empty(out.shape[1:])
            dest = out[io] if first else prod
            if matvec:
                np.einsum("...ij,...j->...i", a.coeffs[ia], comp, out=dest)
            else:
                np.matmul(a.coeffs[ia], comp, out=dest)
            # a first term is 0 + p or 0 - p, as a sum into zeros gives it,
            # down to the sign of a zero entry
            if not first:
                _add_scaled(out[io], prod, sign)
            elif sign > 0:
                dest += 0.0
            else:
                np.subtract(0.0, dest, out=dest)
    return out


@lru_cache(maxsize=None)
def _laplace_symbol(n: int, res: int) -> np.ndarray:
    # -4 pi^2 |k|^2 per product of basis rows, zero on the kernel (products
    # of the mean and Nyquist rows).
    wave = _fourier_basis(res)[1]
    sym = np.zeros((res,) * n)
    for axis in range(n):
        sym -= (wave ** 2).reshape((-1,) + (1,) * (n - 1 - axis))
    sym.setflags(write=False)
    return sym


@lru_cache(maxsize=None)
def _poisson_symbol(n: int, res: int) -> np.ndarray:
    # (-laplacian)^-1 off the kernel, zero on it.
    sym = _laplace_symbol(n, res)
    inv = np.divide(-1.0, sym, out=np.zeros_like(sym), where=sym < 0)
    inv.setflags(write=False)
    return inv


def _apply_symbol(arr: np.ndarray, sym: np.ndarray, first: int,
                  overwrite: bool = False) -> np.ndarray:
    """Every coefficient of arr through a symbol on the real Fourier basis.

    The sym.ndim spatial axes of arr start at `first`.  Each axis takes one
    batched matmul into the basis and, after the pointwise symbol, one back.
    With overwrite, arr itself is one of the two work buffers and holds the
    result.
    """
    n, res = sym.ndim, sym.shape[0]
    basis = _fourier_basis(res)[0]
    # The non-mean basis rows sum to zero only up to rounding; transforming
    # arr minus its first sample and adding that sample back times the
    # symbol's mean value keeps constants exact.
    start = arr[(slice(None),) * first + (slice(0, 1),) * n]
    # Each matmul reads one buffer and writes the other, so two full-size
    # arrays serve all 2n of them; after an even count `coef` holds the result.
    if overwrite:
        start = start.copy()
        coef = arr
        coef -= start
    else:
        coef = arr - start
    spare = np.empty_like(coef)
    for mat in (basis, basis.T):
        for axis in range(first, first + n):
            np.matmul(mat, _lines(coef, axis, res), out=_lines(spare, axis, res))
            coef, spare = spare, coef
        if mat is basis:
            coef *= sym.reshape(sym.shape + (1,) * (arr.ndim - first - n))
    coef += sym[(0,) * n] * start
    return coef


def laplacian(form):
    """Componentwise sum of second derivatives (negative semidefinite)."""
    sym = _laplace_symbol(form.grid.n, form.grid.res)
    return form._like(_apply_symbol(form.coeffs, sym, 1))


def solve_poisson(form):
    """Solve -laplacian(phi) = form componentwise with mean(phi) = 0.

    Kernel content of the input (componentwise means plus any energy in the
    dropped Nyquist bins) is discarded.
    """
    sym = _poisson_symbol(form.grid.n, form.grid.res)
    return form._like(_apply_symbol(form.coeffs, sym, 1))


def _solve_poisson_in_place(coeffs: np.ndarray, n: int, res: int) -> np.ndarray:
    """solve_poisson on a writable coefficient array, which holds the result."""
    return _apply_symbol(coeffs, _poisson_symbol(n, res), 1, overwrite=True)


def project_closed(form):
    """Hodge projection onto closed forms: identity minus d* (-lap)^-1 d.

    A top-degree form is closed by degree, so its projection is itself.
    """
    if not 1 <= form.k <= form.grid.n:
        raise ValueError("projection needs 1 <= k <= n")
    if form.k == form.grid.n:
        return form
    out = form.coeffs.copy()
    _project_closed_in_place(out, form.grid.n, form.k, form.grid.res)
    return form._like(out)


def _project_closed_in_place(coeffs: np.ndarray, n: int, k: int, res: int) -> None:
    """coeffs -= d* (-lap)^-1 d coeffs, for a writable k-form array, k < n.

    The exact part is subtracted one component at a time, so the array is
    its own projection; x - y is bitwise x + (-y), so this is
    project_closed to the bit.
    """
    potential = _solve_poisson_in_place(_image(coeffs, _d_plan(n, k), res), n, res)
    _add_image(coeffs, potential, _codiff_plan(n, k + 1), res, -1.0)


def harmonic_part(form):
    """Projection onto the kernel of the spectral Laplacian.

    On the torus this is the constant part of each component, plus whatever
    energy sits in the dropped Nyquist bins.
    """
    sym = _laplace_symbol(form.grid.n, form.grid.res) == 0
    return form._like(_apply_symbol(form.coeffs, sym, 1))


def _grid_lines(arr: np.ndarray, first: int, n: int) -> np.ndarray:
    """arr as (leading entries, grid points, trailing entries); the n spatial
    axes start at `first`."""
    points = math.prod(arr.shape[first:first + n])
    return arr.reshape(math.prod(arr.shape[:first]), points, -1)


# The reductions below take numpy's own einsum loops, never BLAS (np.dot,
# np.vdot, matmul by ones): BLAS splits a dot product differently for each
# thread count, and artifacts must not depend on it.  They also avoid the
# slow multi-axis paths of np.sum and np.mean.

def _pointwise_sq(arr: np.ndarray, first: int, n: int) -> np.ndarray:
    """Sum of squares at each grid point, over every axis but the n spatial
    ones from `first`."""
    lines = _grid_lines(arr, first, n)
    return np.einsum("cnv,cnv->n", lines, lines).reshape(arr.shape[first:first + n])


def _sum_products(a: np.ndarray, b: np.ndarray) -> float:
    """Sum of a * b over every entry."""
    return float(np.einsum("i,i->", a.reshape(-1), b.reshape(-1)))


def _grid_means(form) -> np.ndarray:
    """Grid mean of every coefficient entry, shape (ncomp, values)."""
    lines = _grid_lines(form.coeffs, 1, form.grid.n)
    return np.einsum("cnv->cv", lines) / lines.shape[1]


def inner(a, b) -> float:
    """L2 inner product: cell measure times the summed Frobenius pairing."""
    a._check_compatible(b)
    return _sum_products(a.coeffs, b.coeffs) * a.grid.cell


def l2_norm(form) -> float:
    return float(np.sqrt(_sum_products(form.coeffs, form.coeffs) * form.grid.cell))


def pointwise_norm(form) -> np.ndarray:
    """Pointwise magnitude: l2 over components, Frobenius over values."""
    return np.sqrt(_pointwise_sq(form.coeffs, 1, form.grid.n))


def sup_norm(form) -> float:
    return float(pointwise_norm(form).max())
