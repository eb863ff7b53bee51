"""Bit-exact field persistence and corruption rejection."""

import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaugeflow import fieldio, maps, synth
from gaugeflow.forms import Grid, MatrixForm, VectorForm


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@pytest.fixture
def grid():
    return Grid(3, 8)


@pytest.fixture
def omega(grid):
    rng = np.random.default_rng(11)
    return synth.synthetic_connection(grid, 3, rng, kmax=2, target_norm=0.5)


class TestRoundTrip:
    def test_matrix_form_bitwise(self, tmp_path, omega):
        path = tmp_path / "omega.f64"
        assert fieldio.write_field(path, omega) == (path, fieldio.sidecar_path(path))
        back = fieldio.read_field(path)
        assert isinstance(back, MatrixForm)
        assert back.grid == omega.grid and back.k == omega.k
        assert bits(back.coeffs) == bits(omega.coeffs)

    def test_special_values_survive(self, tmp_path, grid):
        coeffs = np.zeros((3,) + grid.shape + (2, 2))
        coeffs[0, 0, 0, 0] = [[-0.0, 5e-324], [np.pi, -1e300]]
        form = MatrixForm(grid, 1, coeffs)
        path = tmp_path / "weird.f64"
        fieldio.write_field(path, form)
        assert bits(fieldio.read_field(path).coeffs) == bits(coeffs)

    def test_vector_form_bitwise(self, tmp_path, grid):
        rng = np.random.default_rng(3)
        form = VectorForm(grid, 2, rng.standard_normal((3,) + grid.shape + (3,)))
        path = tmp_path / "current.f64"
        fieldio.write_field(path, form)
        back = fieldio.read_field(path)
        assert isinstance(back, VectorForm) and back.k == 2
        assert bits(back.coeffs) == bits(form.coeffs)

    def test_map_bitwise(self, tmp_path, grid):
        u = maps.perturbed_map(maps.geodesic_map(grid, 3, (1, 0, 0)),
                               0.05, seed=4, kmax=1)
        path = tmp_path / "map.f64"
        fieldio.write_field(path, u)
        back = fieldio.read_field(path)
        assert back.unit_sphere and back.m == 3
        assert bits(back.values) == bits(u.values)

    def test_unknown_type_rejected(self, tmp_path):
        with pytest.raises(TypeError, match="cannot serialize"):
            fieldio.write_field(tmp_path / "x", np.zeros(3))

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(2, 3), k=st.integers(0, 3), m=st.integers(2, 3),
           seed=st.integers(0, 2 ** 16))
    def test_random_geometry_round_trips(self, tmp_path_factory, n, k, m, seed):
        k = min(k, n)
        grid = Grid(n, 8)
        rng = np.random.default_rng(seed)
        ncomp = len(fieldio.forms.components(n, k))
        form = MatrixForm(grid, k, rng.standard_normal(
            (ncomp,) + grid.shape + (m, m)))
        path = tmp_path_factory.mktemp("fields") / "f.f64"
        fieldio.write_field(path, form)
        assert bits(fieldio.read_field(path).coeffs) == bits(form.coeffs)


class TestSidecar:
    def test_header_contents(self, tmp_path, omega):
        path = tmp_path / "omega.f64"
        fieldio.write_field(path, omega)
        header = json.loads(fieldio.sidecar_path(path).read_text())
        payload = path.read_bytes()
        assert header["schema"] == fieldio.SCHEMA
        assert header["kind"] == "matrix-form"
        assert (header["n"], header["res"], header["degree"]) == (3, 8, 1)
        assert header["component_order"] == [[0], [1], [2]]
        assert header["value_shape"] == [3, 3]
        assert header["payload_bytes"] == len(payload) == 3 * 8 ** 3 * 9 * 8
        assert header["crc32"] == zlib.crc32(payload)

    def test_writes_are_deterministic(self, tmp_path, omega):
        first, second = tmp_path / "a.f64", tmp_path / "b.f64"
        fieldio.write_field(first, omega)
        fieldio.write_field(second, omega)
        assert first.read_bytes() == second.read_bytes()
        assert (fieldio.sidecar_path(first).read_bytes()
                == fieldio.sidecar_path(second).read_bytes())

    def test_writes_without_a_payload_copy(self, tmp_path, transient_peak):
        # The checksum and the write read the coefficients in place: the
        # transient stays far below one payload (1.01 payloads with a
        # bytes copy).
        field = synth.random_matrix_form(Grid(3, 16), 2, 3, np.random.default_rng(2), 2)
        path = tmp_path / "b.f64"
        peak = transient_peak(fieldio.write_field, path, field)
        assert peak <= 0.1 * field.coeffs.nbytes
        assert path.read_bytes() == bits(field.coeffs)


def rewrite_header(path, **changes):
    sidecar = fieldio.sidecar_path(path)
    header = json.loads(sidecar.read_text())
    header.update(changes)
    sidecar.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")


class TestCorruption:
    @pytest.fixture
    def stored(self, tmp_path, omega):
        path = tmp_path / "omega.f64"
        fieldio.write_field(path, omega)
        return path

    def test_truncated_payload(self, stored):
        stored.write_bytes(stored.read_bytes()[:-8])
        with pytest.raises(ValueError, match="corrupt field.*bytes"):
            fieldio.read_field(stored)

    def test_flipped_byte_fails_checksum(self, stored):
        payload = bytearray(stored.read_bytes())
        payload[17] ^= 0x40
        stored.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="corrupt field: checksum mismatch"):
            fieldio.read_field(stored)

    def test_missing_sidecar(self, stored):
        fieldio.sidecar_path(stored).unlink()
        with pytest.raises(ValueError, match="corrupt field: unreadable sidecar"):
            fieldio.read_field(stored)

    def test_unparseable_sidecar(self, stored):
        fieldio.sidecar_path(stored).write_text("{not json")
        with pytest.raises(ValueError, match="corrupt field: unreadable sidecar"):
            fieldio.read_field(stored)

    def test_wrong_schema(self, stored):
        rewrite_header(stored, schema="gaugeflow-field-0")
        with pytest.raises(ValueError, match="corrupt field: unknown schema"):
            fieldio.read_field(stored)

    def test_wrong_component_count_rejected_before_payload(self, stored):
        # Drop the payload entirely: a header-level mismatch must surface
        # without attempting to read a single payload byte.
        rewrite_header(stored, component_order=[[0], [1]])
        stored.unlink()
        with pytest.raises(ValueError, match="component order"):
            fieldio.read_field(stored)

    def test_declared_length_vs_geometry_rejected_before_payload(self, stored):
        rewrite_header(stored, payload_bytes=16)
        stored.unlink()
        with pytest.raises(ValueError, match="corrupt field: declared payload"):
            fieldio.read_field(stored)

    def test_value_shape_clash(self, stored):
        rewrite_header(stored, value_shape=[3])
        with pytest.raises(ValueError, match="value shape"):
            fieldio.read_field(stored)

    def test_bad_geometry(self, stored):
        rewrite_header(stored, res=7)
        with pytest.raises(ValueError, match="corrupt field: bad geometry"):
            fieldio.read_field(stored)

    def test_map_of_nonzero_degree_rejected(self, tmp_path):
        # A 1-form whose first component lies on the sphere, relabelled as a
        # map: size, component order and checksum all match the header, but
        # reading it as a map would drop the second component.
        grid = Grid(2, 8)
        u = maps.geodesic_map(grid, 3, (1, 0))
        path = tmp_path / "form.f64"
        fieldio.write_field(path, VectorForm(grid, 1, np.stack([u.values, u.values])))
        rewrite_header(path, kind="map", unit_sphere=True)
        with pytest.raises(ValueError, match="corrupt field: a map is a 0-form"):
            fieldio.read_field(path)

    def test_nan_map_refused_on_read(self, tmp_path, grid):
        # the payload's checksum matches; the sphere check itself refuses it
        values = maps.constant_map(grid, 3).values.copy()
        values[1, 2, 3, 0] = np.nan
        path = tmp_path / "nan.f64"
        fieldio.write_field(path, maps.MapField(grid, values, unit_sphere=False))
        rewrite_header(path, unit_sphere=True)
        with pytest.raises(ValueError, match="unit sphere by nan"):
            fieldio.read_field(path)

    def test_sphere_flag_enforced_on_read(self, tmp_path, grid):
        values = np.full(grid.shape + (2,), 0.5)
        u = maps.MapField(grid, values, unit_sphere=False)
        path = tmp_path / "offsphere.f64"
        fieldio.write_field(path, u)
        back = fieldio.read_field(path)
        assert not back.unit_sphere
        rewrite_header(path, unit_sphere=True)
        with pytest.raises(ValueError, match="unit sphere"):
            fieldio.read_field(path)
