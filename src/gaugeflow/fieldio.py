"""Field persistence: flat little-endian payloads with a checksummed sidecar.

A field on disk is two files: ``<path>`` holds the raw coefficient bytes in
row-major order (last axis fastest) and ``<path>.json`` holds a
structured-text header recording the grid, the component order, and a CRC-32
of the payload.  Readers validate the header before touching the payload and
reconstruct the original object bit for bit.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from . import forms
from .forms import Grid, MatrixForm, VectorForm
from .maps import MapField

__all__ = ["SCHEMA", "read_field", "sidecar_path", "write_field"]

SCHEMA = "gaugeflow-field-1"

_KINDS = ("matrix-form", "vector-form", "map")


def sidecar_path(path) -> Path:
    """Header file that travels with the payload at ``path``."""
    path = Path(path)
    return path.with_name(path.name + ".json")


def _describe(field) -> tuple[dict, np.ndarray]:
    if isinstance(field, MatrixForm):
        kind, k, arr = "matrix-form", field.k, field.coeffs
    elif isinstance(field, VectorForm):
        kind, k, arr = "vector-form", field.k, field.coeffs
    elif isinstance(field, MapField):
        kind, k, arr = "map", 0, field.values[None]
    else:
        raise TypeError(f"cannot serialize a {type(field).__name__}")
    header = {
        "schema": SCHEMA,
        "kind": kind,
        "n": field.grid.n,
        "res": field.grid.res,
        "degree": k,
        "m": field.m,
        "component_order": [list(c) for c in forms.components(field.grid.n, k)],
        "value_shape": list(arr.shape[field.grid.n + 1:]),
        "layout": "row-major, last axis fastest",
        "endianness": "little",
        "dtype": "float64",
    }
    if kind == "map":
        header["unit_sphere"] = field.unit_sphere
    return header, arr


def write_field(path, field) -> tuple:
    """Persist a matrix form, vector form, or map at ``path`` (plus sidecar);
    returns the payload and sidecar paths."""
    header, arr = _describe(field)
    # The checksum and the write read the coefficients through a byte view,
    # so no copy of the payload is made.
    arr = np.ascontiguousarray(arr, dtype="<f8")
    payload = memoryview(arr).cast("B")
    header["payload_bytes"] = arr.nbytes
    header["crc32"] = zlib.crc32(payload)
    path, sidecar = Path(path), sidecar_path(path)
    path.write_bytes(payload)
    sidecar.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    return path, sidecar


def _fail(reason: str):
    raise ValueError(f"corrupt field: {reason}")


def read_field(path):
    """Read back a field written by :func:`write_field`.

    The sidecar is checked first: schema, geometry, component order, and the
    declared payload size must all be consistent before any payload byte is
    read.  The payload itself must match the declared length and CRC-32
    exactly; anything else raises ``ValueError("corrupt field: ...")``.
    """
    path = Path(path)
    try:
        header = json.loads(sidecar_path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"unreadable sidecar ({exc})")
    if header.get("schema") != SCHEMA:
        _fail(f"unknown schema {header.get('schema')!r}")
    kind = header.get("kind")
    if kind not in _KINDS:
        _fail(f"unknown kind {kind!r}")
    if header.get("dtype") != "float64" or header.get("endianness") != "little":
        _fail("unsupported element encoding")
    try:
        grid = Grid(int(header["n"]), int(header["res"]))
        k, m = int(header["degree"]), int(header["m"])
        if not 0 <= k <= grid.n or m < 1:
            raise ValueError(f"degree {k} / value size {m} out of range")
    except (KeyError, TypeError, ValueError) as exc:
        _fail(f"bad geometry ({exc})")
    if kind == "map" and k != 0:
        _fail(f"a map is a 0-form, header declares degree {k}")
    order = [list(c) for c in forms.components(grid.n, k)]
    if header.get("component_order") != order:
        _fail("component order does not match the grid and degree")
    value_shape = [m, m] if kind == "matrix-form" else [m]
    if header.get("value_shape") != value_shape:
        _fail(f"value shape {header.get('value_shape')} clashes with kind {kind!r}")
    shape = (len(order),) + grid.shape + tuple(value_shape)
    expected = int(np.prod(shape)) * 8
    if header.get("payload_bytes") != expected:
        _fail(f"declared payload {header.get('payload_bytes')} bytes, "
              f"geometry needs {expected}")
    try:
        payload = path.read_bytes()
    except OSError as exc:
        _fail(f"unreadable payload ({exc})")
    if len(payload) != expected:
        _fail(f"payload holds {len(payload)} bytes, header promises {expected}")
    if zlib.crc32(payload) != header.get("crc32"):
        _fail("checksum mismatch")
    arr = np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)
    if kind == "matrix-form":
        return MatrixForm(grid, k, arr)
    if kind == "vector-form":
        return VectorForm(grid, k, arr)
    return MapField(grid, arr[0], unit_sphere=bool(header.get("unit_sphere", True)))
