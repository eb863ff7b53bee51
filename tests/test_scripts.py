"""Smoke tests of the command-line scripts, run in-process through main(argv)."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_contraction_sweep_records_regime_refusal(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep = load_script("contraction_sweep")
    argv = ["--res", "16", "--eps", "1e-2", "1.0", "--samples", "1", "--out", str(out)]
    assert sweep.main(argv) == 0
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [float(row["epsilon"]) for row in rows] == [1e-2, 1.0]
    assert [row["status"] for row in rows] == ["ok", "outside contraction regime"]
    assert int(rows[0]["iterations"]) >= 1 and float(rows[0]["residual_l2"]) >= 0.0


def test_stage_memory_reports_each_stage(capsys):
    probe = load_script("stage_memory")
    config = SCRIPTS.parent / "configs" / "synthetic_coexact.ini"
    argv = ["--config", str(config), "--set", "grid.res=8", "--set", "study.resolutions=8 16 32"]
    assert probe.main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["stage", "exit", "wall_s", "peak_rss_mb"]
    rows = [line.split() for line in lines]
    # a synthetic connection has no map to generate
    assert [row[0] for row in rows] == ["omega", "gauge", "solve", "verify", "study"]
    for _, code, wall, peak in rows:
        assert int(code) == 0 and float(wall) > 0.0 and float(peak) > 0.0
