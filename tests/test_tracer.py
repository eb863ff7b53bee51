"""The benchmark's tracer still fits the program.

`perfbench/spans.py` wraps every name in each module's `__all__` and the
study's rung callback; a stale `__all__` entry, or a `convergence_study`
signature the wrapper no longer fits, breaks the traced run.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_study_records_its_layers(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    spans = importlib.import_module("spans")
    workload = run.WORKLOADS["heatflow-study"]
    argv = [workload.command, "--config", str(run.ROOT / workload.config),
            "--out", str(tmp_path / "run")]
    for item in run.program_overrides(workload, 0):
        argv += ["--set", item]
    trace = tmp_path / "spans.json"
    spec = {"mode": "op", "argv": argv, "op": "op0", "trace": str(trace)}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "worker.py"), json.dumps(spec)],
        cwd=run.ROOT, env=run.child_env(1), capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["code"] == 0, proc.stderr
    metrics = spans.summarize(spans.load(trace))
    for name in ("study.res8.s", "gauge.minimize_gauge.s", "verify.convergence_study.s"):
        assert metrics[name] > 0.0, name
