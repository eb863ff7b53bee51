"""CLI surface: artifacts, determinism, exit codes, and error reporting."""

import dataclasses
import json
import os
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import gaugeflow
from gaugeflow import (cli, config, connection, fieldio, forms, gauge, maps, pipeline,
                       solver, synth, verify)

SYNTHETIC = """\
[grid]
n = 3
res = 16

[map]
kind = synthetic_omega
m = 3
seed = 5

[omega]
epsilon = 1e-2
"""

CONTRACTING = ["--set", "omega.epsilon=0.3", "--set", "omega.exact_frac=0.5"]

SHIPPED_SYNTHETIC = Path(__file__).resolve().parents[1] / "configs" / "synthetic_coexact.ini"

# verify at res 16, and a study whose first rung is res 16
JUDGED_RUNS = [("verify", ["--set", "grid.res=16"]),
               ("study", ["--set", "study.resolutions=16 32 64"])]

HEATFLOW = """\
[grid]
n = 3
res = 16

[map]
kind = heatflow
m = 3
base = constant
delta = 3e-4
seed = 42
kmin = 2
kmax = 2
flow_time = 0.0137

[gauge]
tol = 1e-5
"""


@pytest.fixture
def synthetic_ini(tmp_path):
    path = tmp_path / "synthetic.ini"
    path.write_text(SYNTHETIC)
    return path


@pytest.fixture
def heatflow_ini(tmp_path):
    path = tmp_path / "heatflow.ini"
    path.write_text(HEATFLOW)
    return path


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestCommands:
    def test_verify_writes_the_manifest(self, synthetic_ini, heatflow_ini, tmp_path,
                                        capsys):
        # The paths run() returns are exactly the files in the run directory.
        runs = [("verify", synthetic_ini, []), ("verify", heatflow_ini, []),
                ("generate", heatflow_ini, []),
                ("study", heatflow_ini, ["study.resolutions=8 16 32"])]
        for i, (command, ini, overrides) in enumerate(runs):
            out = tmp_path / f"run{i}"
            cfg = dataclasses.replace(config.load_config(ini, overrides), out_dir=str(out))
            written = pipeline.run(cfg, command)
            assert tuple(written) == pipeline._chain(cfg, command)
            paths = [path for stage in written.values() for path in stage]
            assert sorted(paths) == sorted(str(path) for path in out.iterdir())
            # every document is strict JSON: no NaN or Infinity
            for path in out.glob("*.json"):
                json.loads(path.read_text(), parse_constant=refuse_constant)
        # The CLI lists them stage by stage, each sidecar after its payload.
        out = tmp_path / "listed"
        assert cli.main(["verify", "--config", str(heatflow_ini), "--out", str(out)]) == 0
        listed = [line.replace(str(out) + os.sep, "")
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "generate: map.f64", "generate: map.f64.json", "generate: generate.json",
            "omega: omega.f64", "omega: omega.f64.json", "omega: omega.json",
            "gauge: rotation.f64", "gauge: rotation.f64.json",
            "gauge: potential.f64", "gauge: potential.f64.json", "gauge: gauge.json",
            "solve: a_field.f64", "solve: a_field.f64.json",
            "solve: b_field.f64", "solve: b_field.f64.json", "solve: solve.json",
            "solve: solve.csv", "solve: plot_iteration_vs_kappa.dat",
            "verify: verify.json", "verify: verify.csv"]

    def test_out_validates_the_config_once(self, synthetic_ini, tmp_path, monkeypatch):
        # --out is one more override, not a second construction of the config.
        post_init = config.RunConfig.__post_init__
        checks = []

        def counted(cfg):
            checks.append(cfg)
            post_init(cfg)

        monkeypatch.setattr(config.RunConfig, "__post_init__", counted)
        out = tmp_path / "run"
        assert cli.main(["omega", "--config", str(synthetic_ini),
                         "--set", f"output.dir={tmp_path / 'elsewhere'}",
                         "--out", str(out)]) == 0
        assert len(checks) == 1
        assert checks[0].out_dir == str(out)
        assert (out / "omega.json").exists() and not (tmp_path / "elsewhere").exists()

    def test_budget_terms_are_the_gauges_numbers(self, heatflow_ini, tmp_path):
        # solve.json, gauge.json and verify.json carry one harmonic budget.
        out = tmp_path / "run"
        assert cli.main(["verify", "--config", str(heatflow_ini), "--out", str(out)]) == 0
        docs = {name: json.loads((out / f"{name}.json").read_text())
                for name in ("gauge", "solve", "verify")}
        budget = dict(docs["verify"]["residual"]["components"])
        for name in ("harmonic", "representation"):
            assert budget[name].hex() == docs["gauge"][name].hex()
        assert docs["solve"]["harmonic_budget"].hex() == docs["gauge"]["harmonic"].hex()

    def test_reports_are_self_describing(self, synthetic_ini, tmp_path):
        out = tmp_path / "run"
        cli.main(["verify", "--config", str(synthetic_ini), "--out", str(out)])
        docs = [json.loads((out / name).read_text())
                for name in ("omega.json", "gauge.json", "solve.json",
                             "verify.json")]
        hashes = {doc["config_hash"] for doc in docs}
        assert len(hashes) == 1
        assert all(doc["couplings_version"] == "ab-couplings-1" for doc in docs)

    def test_field_artifacts_read_back(self, synthetic_ini, tmp_path):
        out = tmp_path / "run"
        cli.main(["verify", "--config", str(synthetic_ini), "--out", str(out)])
        omega = fieldio.read_field(out / "omega.f64")
        doc = json.loads((out / "omega.json").read_text())
        assert synth.lorentz_norm_of_connection(omega) == doc["lorentz_n2"]
        assert fieldio.read_field(out / "a_field.f64").k == 0
        assert fieldio.read_field(out / "b_field.f64").k == 2

    def test_zero_connection_is_trivial(self, synthetic_ini, tmp_path):
        out = tmp_path / "zero"
        assert cli.main(["verify", "--config", str(synthetic_ini),
                         "--set", "omega.epsilon=0", "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        assert doc["residual"]["l2"] == 0.0
        assert doc["bounds"]["da_n1"] == 0.0

    def test_bounds_match_the_independent_computation(self, synthetic_ini, tmp_path):
        # verify.json takes the bound sizes from the solver's report;
        # verify.bound_ratios recomputes them from the written fields.
        out = tmp_path / "run"
        assert cli.main(["verify", "--config", str(synthetic_ini), *CONTRACTING,
                         "--out", str(out)]) == 0
        doc = json.loads((out / "verify.json").read_text())
        table = verify.bound_ratios(fieldio.read_field(out / "a_field.f64"),
                                    fieldio.read_field(out / "b_field.f64"),
                                    fieldio.read_field(out / "omega.f64"))
        assert doc["bounds"] == dataclasses.asdict(table)
        assert table.negdet_points == 0 and table.ratio > 0.0

    @pytest.mark.parametrize("config, extra", [("synthetic", CONTRACTING), ("heatflow", [])])
    def test_verify_runs_in_two_dimensions(self, config, extra, synthetic_ini,
                                           heatflow_ini, tmp_path):
        ini = synthetic_ini if config == "synthetic" else heatflow_ini
        out = tmp_path / "run"
        assert cli.main(["verify", "--config", str(ini), "--set", "grid.n=2",
                         *extra, "--out", str(out)]) == 0
        assert fieldio.read_field(out / "b_field.f64").grid.n == 2

    def test_generate_reports_tension(self, heatflow_ini, tmp_path):
        out = tmp_path / "gen"
        assert cli.main(["generate", "--config", str(heatflow_ini),
                         "--out", str(out)]) == 0
        doc = json.loads((out / "generate.json").read_text())
        assert 0.0 < doc["tension"] < 1e-2
        assert doc["flow"]["steps"] >= 1
        u = fieldio.read_field(out / "map.f64")
        assert u.unit_sphere

    def test_flow_on_the_stability_guard_runs(self, tmp_path):
        # At res 12, flow_time / (h^2/4) rounds to 19.0, but flow_time / 19
        # lies an ulp above h^2/4.
        shipped = Path(__file__).resolve().parents[1] / "configs" / "heatflow_study.ini"
        assert cli.main(["generate", "--config", str(shipped), "--set", "grid.res=12",
                         "--set", "map.kmin=2", "--set", "map.kmax=2",
                         "--set", "map.flow_time=0.03298611111111111",
                         "--out", str(tmp_path / "run")]) == 0
        doc = json.loads((tmp_path / "run" / "generate.json").read_text())
        assert doc["flow"]["steps"] == 20
        assert doc["flow"]["tau"] <= (1.0 / 12) ** 2 / 4.0

    def test_verify_measures_the_tension_once(self, heatflow_ini, tmp_path, monkeypatch):
        # generate.json and the residual budget report the same tension.
        tension = maps.tension_residual
        calls = []

        def counted(u):
            calls.append(u)
            return tension(u)

        monkeypatch.setattr(maps, "tension_residual", counted)
        out = tmp_path / "run"
        assert cli.main(["verify", "--config", str(heatflow_ini),
                         "--out", str(out)]) == 0
        assert len(calls) == 1
        generated = json.loads((out / "generate.json").read_text())
        residual = json.loads((out / "verify.json").read_text())["residual"]
        assert dict(residual["components"])["tension"] == generated["tension"]

    def test_verify_differentiates_each_map_once(self, heatflow_ini, tmp_path, monkeypatch):
        # The flow's next step, the tension, the energy, the connection and
        # the verifier share the gradient the energy test took.
        derivative = forms.exterior_derivative
        maps_seen = []

        def counted(form):
            if isinstance(form, forms.VectorForm) and form.k == 0:
                maps_seen.append(form.coeffs.base)
            return derivative(form)

        monkeypatch.setattr(forms, "exterior_derivative", counted)
        energy = maps.dirichlet_energy
        energies = []

        def counted_energy(u):
            energies.append(u)
            return energy(u)

        monkeypatch.setattr(maps, "dirichlet_energy", counted_energy)
        assert cli.main(["verify", "--config", str(heatflow_ini),
                         "--out", str(tmp_path / "run")]) == 0
        assert len({id(values) for values in maps_seen}) == len(maps_seen)
        # the initial map and every flow trial, the final map among them
        assert len(maps_seen) == len(energies) - 1


    def test_verify_builds_the_sphere_connection_once(self, heatflow_ini, tmp_path,
                                                     monkeypatch):
        # The sphere-divergence certificate reads the Omega the context holds.
        build = connection.omega_sphere
        calls = []

        def counted(u):
            calls.append(u)
            return build(u)

        monkeypatch.setattr(connection, "omega_sphere", counted)
        assert cli.main(["verify", "--config", str(heatflow_ini),
                         "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

    def test_verify_fixes_the_gauge_once(self, synthetic_ini, tmp_path, monkeypatch):
        # One descent yields the completed pair, under the name the
        # benchmark traces as the gauge layer.
        minimize = gauge.minimize_gauge
        calls = []

        def counted(omega, **kwargs):
            calls.append(omega)
            return minimize(omega, **kwargs)

        monkeypatch.setattr(gauge, "minimize_gauge", counted)
        assert cli.main(["verify", "--config", str(synthetic_ini),
                         "--out", str(tmp_path / "run")]) == 0
        assert len(calls) == 1

    def test_context_holds_the_connection_as_channels(self, synthetic_ini, tmp_path):
        # The omega stage writes and measures the form as built; from then
        # on the context holds only its channels and its size.
        cfg = dataclasses.replace(config.load_config(synthetic_ini), out_dir=str(tmp_path))
        ctx = pipeline._Context(cfg)
        pipeline._stage_omega(ctx, tmp_path)
        assert isinstance(ctx.omega, synth.Connection)
        assert "built_omega" not in vars(ctx)
        written = fieldio.read_field(tmp_path / "omega.f64")
        assert np.array_equal(ctx.omega.expanded().coeffs, written.coeffs)
        doc = json.loads((tmp_path / "omega.json").read_text())
        assert doc["lorentz_n2"] == ctx.omega.n2

    @pytest.mark.parametrize("name, expansions", [("synthetic_coexact.ini", 0),
                                                  ("heatflow_study.ini", 1)])
    def test_verify_measures_the_connection_once(self, name, expansions, tmp_path,
                                                 monkeypatch):
        # Connection.of checks the built Omega; the other two checks are on
        # xi and d(star xi).  Only the sphere-divergence certificate expands
        # the channels; no stage re-expands Omega to measure it.
        defect, expanded = forms.MatrixForm.antisymmetry_defect, forms.SkewForm.expanded
        checked, expansions_seen = [], []

        def counted_defect(form):
            checked.append(form.k)
            return defect(form)

        def counted_expanded(skew):
            expansions_seen.append(skew.k)
            return expanded(skew)

        monkeypatch.setattr(forms.MatrixForm, "antisymmetry_defect", counted_defect)
        monkeypatch.setattr(forms.SkewForm, "expanded", counted_expanded)
        assert cli.main(["verify", "--config", str(SHIPPED_SYNTHETIC.parent / name),
                         "--set", "grid.res=16", "--out", str(tmp_path / "run")]) == 0
        assert checked == [1, 2, 2]
        assert expansions_seen == [1] * expansions

    def test_gauge_fields_are_released_before_the_picard_loop(
            self, synthetic_ini, tmp_path, monkeypatch):
        # The gauge stage writes P and xi; then the solve takes the context's
        # only reference to the pair, so neither is alive when the main run
        # or the probe starts, and the context keeps only the diagnostics.
        cfg = dataclasses.replace(config.load_config(synthetic_ini), out_dir=str(tmp_path))
        ctx = pipeline._Context(cfg)
        pipeline._stage_omega(ctx, tmp_path)
        pipeline._stage_gauge(ctx, tmp_path)
        held = (weakref.ref(ctx.pair.P.coeffs), weakref.ref(ctx.pair.xi.coeffs))
        iterate = solver._iterate
        alive = []

        def checked(*args, **kwargs):
            alive.append([ref() is not None for ref in held])
            return iterate(*args, **kwargs)

        monkeypatch.setattr(solver, "_iterate", checked)
        pipeline._stage_solve(ctx, tmp_path)
        pipeline._stage_verify(ctx, tmp_path)
        assert alive == [[False, False], [False, False]]
        gauge_doc = json.loads((tmp_path / "gauge.json").read_text())
        assert gauge_doc["representation"] == ctx.gauge_diagnostics.representation
        with pytest.raises(RuntimeError, match="gone to the solve"):
            ctx.pair

    @pytest.mark.parametrize("command, ini, extra", [
        ("solve", "synthetic_ini", []),
        ("verify", "synthetic_ini", CONTRACTING),
        ("study", "heatflow_ini", ["--set", "study.resolutions=8 16 32"]),
    ])
    def test_no_command_solves_beside_its_gauge_fields(
            self, command, ini, extra, tmp_path, monkeypatch, request):
        # Every path to the solve drops P and xi before the Picard loop.
        minimize, iterate = gauge.minimize_gauge, solver._iterate
        held, alive = [], []

        def recorded(omega, **kwargs):
            pair = minimize(omega, **kwargs)
            held.extend((weakref.ref(pair.P.coeffs), weakref.ref(pair.xi.coeffs)))
            return pair

        def checked(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in held))
            return iterate(*args, **kwargs)

        monkeypatch.setattr(gauge, "minimize_gauge", recorded)
        monkeypatch.setattr(solver, "_iterate", checked)
        assert cli.main([command, "--config", str(request.getfixturevalue(ini)), *extra,
                         "--out", str(tmp_path / "run")]) == 0
        assert alive and not any(alive)


class TestDeterminism:
    def test_reruns_are_byte_identical(self, heatflow_ini, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert cli.main(["verify", "--config", str(heatflow_ini),
                             "--out", str(out)]) == 0
        assert tree_bytes(first) == tree_bytes(second)

    def test_blas_thread_count_leaves_artifacts_unchanged(self, synthetic_ini, tmp_path):
        # Derivatives are BLAS matmuls; the thread count must not reorder sums.
        src = str(Path(gaugeflow.__file__).resolve().parents[1])
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "gaugeflow.cli", "verify", "--config",
                 str(synthetic_ini), *CONTRACTING, "--out", str(out)],
                env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_study_reruns_are_byte_identical(self, heatflow_ini, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert cli.main(["study", "--config", str(heatflow_ini),
                             "--set", "study.resolutions=8 16 32",
                             "--out", str(out)]) == 0
        assert tree_bytes(first) == tree_bytes(second)
        study = json.loads((first / "study.json").read_text())
        ladder = study["residual"]["ladder"]
        assert [res for res, _ in ladder] == [8, 16, 32]
        csv_lines = (first / "study.csv").read_text().splitlines()
        assert csv_lines[0] == "resolution,h,residual_l2,residual_sup,budget,order"
        assert len(csv_lines) == 4
        plot = (first / "plot_h_vs_residual.dat").read_text()
        assert plot.startswith("# h residual_l2") and len(plot.splitlines()) == 4

    def test_study_rungs_run_in_ladder_order_on_the_calling_thread(
            self, heatflow_ini, tmp_path, monkeypatch):
        # A thread-count variable in the environment changes nothing.
        monkeypatch.setenv("GAUGEFLOW_THREADS", "2")
        calls = []
        residual_report = pipeline._Context.residual_report

        def recording(ctx):
            calls.append((ctx.res, threading.get_ident()))
            return residual_report(ctx)

        monkeypatch.setattr(pipeline._Context, "residual_report", recording)
        assert cli.main(["study", "--config", str(heatflow_ini),
                         "--set", "study.resolutions=8 16 32",
                         "--out", str(tmp_path / "x")]) == 0
        me = threading.get_ident()
        assert calls == [(8, me), (16, me), (32, me)]


class TestFailures:
    def test_unknown_key_exits_nonzero(self, synthetic_ini, capsys):
        code = cli.main(["verify", "--config", str(synthetic_ini),
                         "--set", "solver.turbo=yes"])
        assert code == 1
        assert "unknown configuration key" in capsys.readouterr().err

    def test_stage_and_hash_in_error(self, synthetic_ini, tmp_path, capsys):
        code = cli.main(["solve", "--config", str(synthetic_ini),
                         "--set", "solver.regime_limit=1e-3",
                         "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert "stage solve failed" in err and "config " in err
        assert "outside contraction regime" in err

    def test_generate_without_a_map(self, synthetic_ini, tmp_path, capsys):
        code = cli.main(["generate", "--config", str(synthetic_ini),
                         "--out", str(tmp_path / "x")])
        assert code == 1
        assert "no map to generate" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["verify", "--config", str(tmp_path / "absent.ini")])
        assert code == 1
        assert capsys.readouterr().err.startswith("gaugeflow:")

    def test_unknown_command_is_a_usage_error(self, synthetic_ini):
        with pytest.raises(SystemExit) as info:
            cli.main(["paint", "--config", str(synthetic_ini)])
        assert info.value.code == 2

    @pytest.mark.parametrize("command, extra", JUDGED_RUNS)
    def test_wrong_pair_fails_its_budget(self, command, extra, tmp_path, monkeypatch,
                                         capsys):
        # A sign error in the 2-form transport leaves a residual far above
        # the defect budget; verify and every study rung refuse it.
        monkeypatch.setattr(solver, "TWO_FORM_TRANSPORT_COUPLING", -1.0)
        code = cli.main([command, "--config", str(SHIPPED_SYNTHETIC), *CONTRACTING,
                         *extra, "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"stage {command} failed" in err
        assert "exceeds the defect budget" in err

    @pytest.mark.parametrize("command, extra", JUDGED_RUNS)
    def test_reflected_frame_is_refused(self, command, extra, tmp_path, monkeypatch,
                                        capsys):
        distance = gauge.rotation_distance

        def one_flagged(pointwise):
            dist, negdet, sigma = distance(pointwise)
            negdet.flat[0] = True
            return dist, negdet, sigma

        monkeypatch.setattr(gauge, "rotation_distance", one_flagged)
        code = cli.main([command, "--config", str(SHIPPED_SYNTHETIC), *extra,
                         "--out", str(tmp_path / "run")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"stage {command} failed" in err
        assert "1 points have a non-positive determinant" in err

    def test_help_documents_the_columns(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "study.csv" in text
