"""Release gate: each test certifies one advertised capability end to end.

Every test reports exactly one summary line of the form

    [acceptance] calculus core: PASS (12.3s)

printed live under `pytest -s` and replayed after the run by the terminal
summary hook in conftest, so the verdicts survive output capture.
Wall-clock budgets are part of the contract: blowing one fails the gate
even when the mathematics checks out.
"""

import dataclasses
import functools
import json
import sys
import time

import numpy as np
import pytest

from gaugeflow import (cli, connection, fieldio, forms, gauge, lorentz, maps,
                       pipeline, solver, synth, verify)
from gaugeflow.config import RunConfig
from gaugeflow.forms import Grid, MatrixForm


VERDICTS: list[str] = []


def _line(label: str, verdict: str, elapsed: float):
    text = f"[acceptance] {label}: {verdict} ({elapsed:.1f}s)"
    VERDICTS.append(text)
    print(text, file=sys.__stdout__, flush=True)


def criterion(label: str, budget: float | None = None):
    """Wrap a test so it always reports one PASS/FAIL line and its runtime."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                _line(label, "FAIL", time.perf_counter() - start)
                raise
            elapsed = time.perf_counter() - start
            if budget is not None and elapsed > budget:
                _line(label, "FAIL", elapsed)
                raise AssertionError(
                    f"{label} took {elapsed:.1f}s, budget {budget:.0f}s")
            _line(label, "PASS", elapsed)
        return wrapper
    return decorate


@criterion("calculus core", budget=60.0)
def test_calculus_core():
    # d.d = 0, adjointness, Leibniz, star-star sign, and the Poisson round
    # trip on random band-limited matrix forms in every dimension.
    for n in (2, 3, 4):
        res = 16 if n == 4 else 32
        grid = Grid(n, res)
        for m in (2, 3):
            rng = np.random.default_rng(31 * n + m)
            ws = {k: synth.random_matrix_form(grid, k, m, rng, kmax=2)
                  for k in range(n + 1)}
            for k, w in ws.items():
                scale = forms.l2_norm(w)
                ss = forms.hodge_star(forms.hodge_star(w))
                sign = (-1.0) ** (k * (n - k))
                assert np.array_equal(ss.coeffs, sign * w.coeffs)
                if k <= n - 2:
                    dd = forms.exterior_derivative(forms.exterior_derivative(w))
                    assert forms.l2_norm(dd) <= 1e-10 * scale * res ** 2
                if k <= n - 1:
                    lhs = forms.inner(forms.exterior_derivative(w), ws[k + 1])
                    rhs = forms.inner(w, forms.codifferential(ws[k + 1]))
                    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs), abs(rhs))
                for q in range(n - k):
                    prod = forms.wedge(w, ws[q])
                    left = forms.exterior_derivative(prod)
                    right = (forms.wedge(forms.exterior_derivative(w), ws[q])
                             + forms.wedge(w, forms.exterior_derivative(ws[q]))
                             * ((-1.0) ** k))
                    assert (forms.l2_norm(left - right)
                            <= 1e-8 * max(1.0, forms.l2_norm(left)))
                back = forms.solve_poisson(-forms.laplacian(w))
                assert forms.l2_norm(back - w) <= 1e-10 * scale


@criterion("Lorentz norms", budget=30.0)
def test_lorentz_norms():
    grid = Grid(2, 64)
    side = 16  # box measure (side/res)^2 = 1/16, exactly representable
    indicator = np.zeros(grid.shape)
    indicator[:side, :side] = 1.0
    a = (side / grid.res) ** 2
    for p, q in ((2, 1), (3, 2), (4, 2)):
        measured = lorentz.lorentz_norm(indicator, float(p), float(q))
        exact = (p / q) ** (1.0 / q) * a ** (1.0 / p)
        assert abs(measured - exact) <= 1e-3 * exact
    field = np.abs(synth.band_limited_field(
        grid, np.random.default_rng(2), kmax=3)) + 0.1
    for p in (2.0, 3.0, 4.0):
        direct = float(np.mean(field ** p) ** (1.0 / p))
        assert abs(lorentz.lorentz_norm(field, p, p) - direct) <= 1e-12 * direct


@criterion("sphere conservation law", budget=60.0)
def test_sphere_conservation_law():
    grid = Grid(3, 32)
    geo = maps.geodesic_map(grid, 3, (1, 0, 0))
    assert verify.sphere_divergence_residual(connection.omega_sphere(geo)).l2 <= 1e-8
    rough = maps.perturbed_map(geo, 0.01, seed=9, kmin=2, kmax=2)
    before = verify.sphere_divergence_residual(connection.omega_sphere(rough)).l2
    assert before > 0.0
    relaxed = maps.heat_flow_relax(rough, steps=200)
    after = verify.sphere_divergence_residual(connection.omega_sphere(relaxed)).l2
    assert after <= before / 10.0


@criterion("frame consistency")
def test_frame_consistency():
    grid = Grid(3, 16)
    frame = connection.sphere_frame()
    for seed in range(10):
        u = maps.perturbed_map(maps.constant_map(grid, 3), 0.2,
                               seed=seed, kmax=2)
        direct = connection.omega_sphere(u)
        framed = connection.omega_from_frame(u, frame)
        assert float(np.abs(direct.coeffs - framed.coeffs).max()) <= 1e-10


@criterion("Coulomb gauge", budget=120.0)
def test_coulomb_gauge():
    grid = Grid(3, 32)
    omega = synth.synthetic_connection(
        grid, 3, np.random.default_rng(5), kmax=2, target_norm=1e-2)
    pair = gauge.minimize_gauge(omega)
    identity = MatrixForm(grid, 0, np.broadcast_to(np.eye(3), (1,) + grid.shape + (3, 3)).copy())
    assert forms.sup_norm(pair.P - identity) <= 1e-6
    assert pair.diagnostics.representation <= 1e-8

    rot = gauge.so_exp(np.array([[0.0, 0.4, -0.1],
                                 [-0.4, 0.0, 0.3],
                                 [0.1, -0.3, 0.0]]))
    # the conjugate's two triangles round apart; a connection is exactly skew
    raw = np.einsum("ji,a...jk,kl->a...il", rot, omega.coeffs, rot)
    conjugated = MatrixForm(grid, 1, 0.5 * (raw - np.swapaxes(raw, -1, -2)))
    gauged = gauge._gauged_connection(pair.P.coeffs[0], synth.Connection.of(omega))
    gauged_conj = gauge._gauged_connection(
        gauge.minimize_gauge(conjugated).P.coeffs[0], synth.Connection.of(conjugated))
    expected = np.einsum("ji,a...jk,kl->a...il", rot, gauged, rot)
    gap = float(np.sqrt(((gauged_conj - expected) ** 2).sum() * grid.cell))
    assert gap <= 1e-6


@criterion("contraction regime", budget=300.0)
def test_contraction_regime():
    grid = Grid(3, 32)
    kappas = []
    for eps in (1e-3, 1e-2):
        omega = synth.synthetic_connection(
            grid, 3, np.random.default_rng(5), kmax=2, target_norm=eps)
        pmap = solver.PicardMap.of(gauge.minimize_gauge(omega))
        kappas.append(solver.measure_contraction(
            pmap, np.random.default_rng(6), samples=3))
    assert all(kappa < 0.5 for kappa in kappas)
    assert kappas[0] < kappas[1]

    big = synth.synthetic_connection(
        grid, 3, np.random.default_rng(5), kmax=2, target_norm=1.0)
    with pytest.raises(solver.SolverError, match="outside contraction regime"):
        solver.solve_pair(big, solver.PicardMap.of(gauge.minimize_gauge(big)))


@criterion("existence of the pair", budget=120.0)
def test_existence_of_the_pair():
    grid = Grid(3, 32)
    base = synth.synthetic_connection(
        grid, 3, np.random.default_rng(5), kmax=2, target_norm=1e-2)
    tol = 1e-8
    ratios = []
    for s in (0.25, 0.5, 1.0):
        omega = base * s
        pair = gauge.minimize_gauge(omega)
        A, B, report = solver.solve_pair(omega, solver.PicardMap.of(pair), tol=tol)
        assert report.residual_l2 <= 1e-6 + pair.diagnostics.harmonic
        assert report.uniqueness_gap <= 10 * tol
        ratios.append(verify.bound_ratios(A, B, omega).ratio)
    assert max(ratios) <= 2.0 * min(ratios)


@criterion("conservation law end to end", budget=600.0)
def test_conservation_law_end_to_end(tmp_path):
    cfg = RunConfig(map_kind="heatflow", base="constant", delta=3e-4,
                    seed=42, kmin=4, kmax=4, flow_time=0.0137,
                    gauge_tol=1e-5, solver_tol=1e-8, res=32,
                    resolutions=(16, 32, 64),
                    out_dir=str(tmp_path / "point"))
    pipeline.run(cfg, "verify")
    doc = json.loads((tmp_path / "point" / "verify.json").read_text())
    residual = doc["residual"]
    components = dict(residual["components"])
    assert components["tension"] <= 1e-4
    assert residual["l2"] <= 1e-3
    assert residual["coordinate_gap"] <= 1e-8

    ladder_cfg = dataclasses.replace(cfg, out_dir=str(tmp_path / "ladder"))
    pipeline.run(ladder_cfg, "study")
    study = json.loads((tmp_path / "ladder" / "study.json").read_text())
    levels = [l2 for _, l2 in study["residual"]["ladder"]]
    assert levels[0] > levels[1] > levels[2]
    assert study["residual"]["order"] >= 1.0


@criterion("determinism and field io", budget=120.0)
def test_determinism_and_field_io(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[grid]\nn = 3\nres = 16\n\n[map]\nkind = synthetic_omega\n"
                   "m = 3\nseed = 5\n\n[omega]\nepsilon = 1e-2\n")
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["verify", "--config", str(ini),
                         "--out", str(out)]) == 0
        trees.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert trees[0] == trees[1]

    grid = Grid(3, 8)
    omega = synth.synthetic_connection(
        grid, 3, np.random.default_rng(11), kmax=2, target_norm=0.5)
    path = tmp_path / "omega.f64"
    fieldio.write_field(path, omega)
    back = fieldio.read_field(path)
    assert back.coeffs.tobytes() == omega.coeffs.tobytes()

    u = maps.perturbed_map(maps.constant_map(grid, 3), 0.1, seed=3, kmax=2)
    upath = tmp_path / "map.f64"
    fieldio.write_field(upath, u)
    assert fieldio.read_field(upath).values.tobytes() == u.values.tobytes()

    payload = bytearray(path.read_bytes())
    payload[33] ^= 0x01
    path.write_bytes(bytes(payload))
    with pytest.raises(ValueError, match="corrupt field"):
        fieldio.read_field(path)
    path.write_bytes(bytes(payload)[:-16])
    with pytest.raises(ValueError, match="corrupt field"):
        fieldio.read_field(path)
