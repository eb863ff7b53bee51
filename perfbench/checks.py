"""Output checks computed apart from the program, with numpy and zlib only.

Nothing here imports gaugeflow: fields are read back with this module's own
reader (raw little-endian payload, zlib CRC against the sidecar), derivatives
are taken with real FFTs along one axis at a time (the program uses complex
transforms), and the exterior derivative and codifferential are written out
in coordinates.  Every check raises `CheckFailed` with a message naming what
it saw; `perfbench/selfcheck.py` shows each one firing on a corrupted
artifact.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import zlib
from pathlib import Path

import numpy as np

UNIT_SPHERE_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
CLOSED_TOL = 1e-8
# The recomputed pair residual and the program's differ only by rounding in
# two FFT paths; a changed construction moves it at its own size.
RESIDUAL_RTOL = 1e-6
RESIDUAL_ATOL = 1e-12
BUDGET_FACTOR = 2.0
ORDER_TOL = 1e-9
MIN_PICARD_STEPS = 3


class CheckFailed(Exception):
    """An artifact disagrees with what the benchmark computed on its own."""


def read_field(path) -> tuple[dict, np.ndarray]:
    """Header and coefficient array of a field file, validated byte for byte."""
    path = Path(path)
    header = json.loads(path.with_name(path.name + ".json").read_text())
    payload = path.read_bytes()
    if header.get("dtype") != "float64" or header.get("endianness") != "little":
        raise CheckFailed(f"{path.name}: unexpected encoding in the sidecar")
    n, res, degree = int(header["n"]), int(header["res"]), int(header["degree"])
    shape = ((math.comb(n, degree),) + (res,) * n
             + tuple(int(v) for v in header["value_shape"]))
    expected = math.prod(shape) * 8
    if len(payload) != header.get("payload_bytes") or len(payload) != expected:
        raise CheckFailed(
            f"{path.name}: payload holds {len(payload)} bytes, sidecar says "
            f"{header.get('payload_bytes')}, geometry needs {expected}")
    if zlib.crc32(payload) != header.get("crc32"):
        raise CheckFailed(f"{path.name}: checksum mismatch with the sidecar")
    return header, np.frombuffer(payload, dtype="<f8").reshape(shape)


def read_all_fields(out: Path) -> dict:
    return {path.name[:-len(".f64")]: read_field(path)
            for path in sorted(out.glob("*.f64"))}


def partial(arr: np.ndarray, axis: int) -> np.ndarray:
    """Spectral derivative along one array axis of a unit-periodic grid.

    The Nyquist wavenumber is dropped, the convention of the program's
    calculus, under which closed forms are closed to rounding.
    """
    res = arr.shape[axis]
    k = np.arange(res // 2 + 1, dtype=float)
    k[-1] = 0.0
    shape = [1] * arr.ndim
    shape[axis] = k.size
    spec = np.fft.rfft(arr, axis=axis) * (2j * np.pi * k).reshape(shape)
    return np.fft.irfft(spec, n=res, axis=axis)


def l2(arr: np.ndarray, n: int) -> float:
    """L2 norm of grid coefficients on the unit torus (cell measure res^-n)."""
    res = arr.shape[1]
    return float(np.sqrt(np.sum(arr ** 2) * float(res) ** -n))


def exterior_derivative(coeffs: np.ndarray, n: int, k: int) -> np.ndarray:
    """(dB)_J = sum_p (-1)^p d_{J_p} B_{J minus J_p}, components lexicographic."""
    index = {c: i for i, c in enumerate(itertools.combinations(range(n), k))}
    outs = []
    for comp in itertools.combinations(range(n), k + 1):
        total = np.zeros(coeffs.shape[1:])
        for p, axis in enumerate(comp):
            rest = comp[:p] + comp[p + 1:]
            total += (-1) ** p * partial(coeffs[index[rest]], axis)
        outs.append(total)
    return np.stack(outs)


def codifferential_two_form(coeffs: np.ndarray, n: int) -> np.ndarray:
    """(d*B)_j = -sum_i d_i B_ij, with B_ji = -B_ij."""
    out = np.zeros((n,) + coeffs.shape[1:])
    for idx, (i, j) in enumerate(itertools.combinations(range(n), 2)):
        out[j] -= partial(coeffs[idx], i)
        out[i] += partial(coeffs[idx], j)
    return out


def check_unit_sphere(fields: dict):
    _, u = fields["map"]
    defect = float(np.abs(np.sqrt(np.sum(u ** 2, axis=-1)) - 1.0).max())
    if defect > UNIT_SPHERE_TOL:
        raise CheckFailed(f"map: |u| leaves 1 by {defect:.3e} > {UNIT_SPHERE_TOL:.0e}")


def check_rotation(fields: dict):
    _, rot = fields["rotation"]
    p = rot[0]
    gram = np.einsum("...ji,...jk->...ik", p, p)
    defect = float(np.abs(gram - np.eye(p.shape[-1])).max())
    if defect > ORTHOGONALITY_TOL:
        raise CheckFailed(f"rotation: P is not orthogonal, |P^T P - I| = {defect:.3e}")
    det = float(np.linalg.det(p).min())
    if det <= 0.0:
        raise CheckFailed(f"rotation: det P reaches {det:.3e} <= 0")


def check_closed(fields: dict):
    header, b = fields["b_field"]
    n = int(header["n"])
    db = l2(exterior_derivative(b, n, 2), n)
    size = l2(b, n)
    if db > CLOSED_TOL * max(1.0, size):
        raise CheckFailed(f"b_field: ||dB|| = {db:.3e} > {CLOSED_TOL:.0e} x max(1, {size:.3e})")


def pair_residual(fields: dict) -> float:
    """L2 norm of dA - A Omega + d*B from the written fields."""
    header, a = fields["a_field"]
    _, b = fields["b_field"]
    _, omega = fields["omega"]
    n = int(header["n"])
    da = np.stack([partial(a[0], axis) for axis in range(n)])
    a_omega = np.einsum("...ij,c...jk->c...ik", a[0], omega)
    return l2(da - a_omega + codifferential_two_form(b, n), n)


def check_pair_residual(fields: dict, out: Path):
    mine = pair_residual(fields)
    theirs = float(json.loads((out / "solve.json").read_text())["residual_l2"])
    if abs(mine - theirs) > RESIDUAL_RTOL * theirs + RESIDUAL_ATOL:
        raise CheckFailed(
            f"solve.json residual_l2 {theirs:.10e} disagrees with dA - A Omega + d*B "
            f"recomputed from the fields, {mine:.10e}")


def check_picard(out: Path, tol: float):
    solve = json.loads((out / "solve.json").read_text())
    diffs, ratios = solve["diff_totals"], solve["ratios"]
    if solve["iterations"] < MIN_PICARD_STEPS or len(diffs) != solve["iterations"]:
        raise CheckFailed(
            f"solve.json: {solve['iterations']} Picard steps ({len(diffs)} "
            f"differences), expected at least {MIN_PICARD_STEPS}")
    if len(ratios) != len(diffs) - 1 or any(r >= 1.0 for r in ratios):
        raise CheckFailed(f"solve.json: Picard ratios {ratios} are not all < 1")
    if diffs[-1] > tol:
        raise CheckFailed(f"solve.json: last difference {diffs[-1]:.3e} > tol {tol:.0e}")


def least_squares_slope(xs, ys) -> float:
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return num / sum((x - mx) ** 2 for x in xs)


def check_study(out: Path, resolutions: tuple):
    with (out / "study.csv").open() as handle:
        rows = list(csv.DictReader(handle))
    got = tuple(int(row["resolution"]) for row in rows)
    if got != tuple(resolutions):
        raise CheckFailed(f"study.csv: rungs {got}, expected {tuple(resolutions)}")
    for row in rows:
        l2_, budget = float(row["residual_l2"]), float(row["budget"])
        if l2_ > BUDGET_FACTOR * budget:
            raise CheckFailed(
                f"study.csv: res {row['resolution']} residual {l2_:.3e} exceeds "
                f"{BUDGET_FACTOR:g} x budget {budget:.3e}")
    xs = [math.log2(1.0 / r) for r in got]
    ys = [math.log2(float(row["residual_l2"])) for row in rows]
    fit = least_squares_slope(xs, ys)
    orders = {row["order"] for row in rows}
    if len(orders) != 1:
        raise CheckFailed(f"study.csv: rows disagree on the order {sorted(orders)}")
    order = float(orders.pop())
    if abs(order - fit) > ORDER_TOL * max(1.0, abs(fit)):
        raise CheckFailed(
            f"study.csv: order {order:.12f} differs from the least-squares fit {fit:.12f}")


def artifact_digest(out: Path) -> dict:
    """sha256 of every file an operation wrote, by relative name."""
    return {str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*")) if path.is_file()}


def check_same_artifacts(first: dict, later: dict):
    if first != later:
        names = sorted(name for name in set(first) | set(later)
                       if first.get(name) != later.get(name))
        raise CheckFailed(f"repeated operation wrote different artifacts: {names}")


def check_operation(out: Path, kind: str, tol: float, resolutions: tuple = ()):
    """Every check that applies to one operation's output directory.

    kind is "heatflow" (a map and the pair), "contracting" (the pair and a
    contracting Picard loop) or "study" (a ladder table and no fields).
    """
    fields = read_all_fields(out)
    if kind == "study":
        check_study(out, resolutions)
        return
    if kind == "heatflow":
        check_unit_sphere(fields)
    check_rotation(fields)
    check_closed(fields)
    check_pair_residual(fields, out)
    if kind == "contracting":
        check_picard(out, tol)
