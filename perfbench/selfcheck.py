"""Show that every output check of the benchmark fires on a corrupted artifact.

    python3 perfbench/selfcheck.py

Run from the root of a checkout (about 30 s on 2 cores).  It makes real
artifacts with the benchmark's three workload definitions, at res 16 for the
two verify workloads to save time, confirms that they pass every check, then
corrupts one thing at a time in a copy and requires the matching check to
raise.  It also confirms that BENCHMARK.json names exactly the workloads and
metrics that perfbench/run.py and perfbench/spans.py produce.  Exits 1 if
any check stays silent.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

import checks
import run
import spans

WORK = run.BENCH_DIR / "out" / "selfcheck"


def make_artifacts(name: str, extra: tuple = ()) -> Path:
    workload = run.WORKLOADS[name]
    out = WORK / name
    cmd = [sys.executable, "-m", "gaugeflow.cli", workload.command,
           "--config", str(run.ROOT / workload.config), "--out", str(out)]
    for item in run.program_overrides(workload, 0) + list(extra):
        cmd += ["--set", item]
    subprocess.run(cmd, cwd=run.ROOT, env=run.child_env(), check=True,
                   capture_output=True)
    return out


def rewrite_field(path: Path, arr: np.ndarray):
    """Write a payload with a sidecar that matches it, so only the values are wrong."""
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    sidecar = path.with_name(path.name + ".json")
    header = json.loads(sidecar.read_text())
    header["payload_bytes"], header["crc32"] = len(payload), zlib.crc32(payload)
    path.write_bytes(payload)
    sidecar.write_text(json.dumps(header))


def edit_field(name):
    def mutate(out: Path, change):
        path = out / f"{name}.f64"
        _, arr = checks.read_field(path)
        arr = arr.copy()
        change(arr)
        rewrite_field(path, arr)
    return mutate


def edit_json(name, change):
    def mutate(out: Path):
        path = out / name
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return mutate


def edit_study(change):
    def mutate(out: Path):
        path = out / "study.csv"
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        change(rows)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
    return mutate


def flip_byte(name):
    def mutate(out: Path):
        path = out / name
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
    return mutate


def truncate(name):
    def mutate(out: Path):
        path = out / name
        path.write_bytes(path.read_bytes()[:-8])
    return mutate


def scale_map(arr):
    arr *= 1.0 + 1e-9


def bend_rotation(arr):
    arr[(0,) * (arr.ndim - 2) + (0, 0)] += 1e-7


def reflect_rotation(arr):
    arr[..., :, 0] *= -1.0


def open_two_form(arr):
    res = arr.shape[1]
    wave = 1e-6 * np.sin(2 * np.pi * np.arange(res) / res)
    arr[0] += wave[None, None, :, None, None]  # B_01 varying along x_2


def shift_a(arr):
    arr[..., range(arr.shape[-1]), range(arr.shape[-1])] += 1e-6


def drop_steps(doc):
    doc["iterations"] = 2
    doc["diff_totals"] = doc["diff_totals"][:2]
    doc["ratios"] = doc["ratios"][:1]


def raise_ratio(doc):
    doc["ratios"][1] = 1.5


def loosen_last(doc):
    doc["diff_totals"][-1] = 1e-6


def nudge_residual(doc):
    doc["residual_l2"] *= 1.0 + 1e-5


def blow_budget(rows):
    rows[1]["residual_l2"] = repr(3.0 * float(rows[1]["budget"]))


def shift_order(rows):
    for row in rows:
        row["order"] = repr(float(row["order"]) + 1e-6)


def corruptions(dirs: dict) -> list:
    """(label, source dir, kind, mutation, expected message fragment)."""
    hv, cv, st = dirs["heatflow"], dirs["contracting"], dirs["study"]
    return [
        ("payload CRC", hv, "heatflow", flip_byte("b_field.f64"), "checksum mismatch"),
        ("payload length", hv, "heatflow", truncate("omega.f64"), "payload holds"),
        ("|u| = 1", hv, "heatflow",
         lambda out: edit_field("map")(out, scale_map), "leaves 1"),
        ("P orthogonal", cv, "contracting",
         lambda out: edit_field("rotation")(out, bend_rotation), "not orthogonal"),
        ("det P > 0", cv, "contracting",
         lambda out: edit_field("rotation")(out, reflect_rotation), "det P"),
        ("dB = 0", cv, "contracting",
         lambda out: edit_field("b_field")(out, open_two_form), "||dB||"),
        ("pair residual (fields)", cv, "contracting",
         lambda out: edit_field("a_field")(out, shift_a), "recomputed"),
        ("pair residual (report)", hv, "heatflow",
         edit_json("solve.json", nudge_residual), "recomputed"),
        ("Picard step count", cv, "contracting",
         edit_json("solve.json", drop_steps), "Picard steps"),
        ("Picard ratios < 1", cv, "contracting",
         edit_json("solve.json", raise_ratio), "not all < 1"),
        ("last difference <= tol", cv, "contracting",
         edit_json("solve.json", loosen_last), "last difference"),
        ("rung within 2x budget", st, "study", edit_study(blow_budget), "x budget"),
        ("order = least-squares fit", st, "study", edit_study(shift_order),
         "least-squares fit"),
    ]


def fires(check, expected: str) -> bool:
    try:
        check()
    except checks.CheckFailed as exc:
        return expected in str(exc)
    return False


def benchmark_json_matches() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workload names differ from run.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END_UNITS:
        problems.append("end_to_end metrics differ from run.END_TO_END_UNITS")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != list(spans.PER_LAYER):
        problems.append("per_layer metrics differ from spans.PER_LAYER")
    return problems


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        dirs = {
            "heatflow": make_artifacts("heatflow-verify", ("grid.res=16",)),
            "contracting": make_artifacts("contracting-verify", ("grid.res=16",)),
            "study": make_artifacts("heatflow-study"),
        }
        silent = benchmark_json_matches()
        for kind, out in dirs.items():
            checks.check_operation(out, kind, run.SOLVER_TOL, run.STUDY_LADDER)
        print("pristine artifacts pass every check")
        for index, (label, source, kind, mutate, expected) in enumerate(corruptions(dirs)):
            copy = WORK / f"corrupt{index}"
            shutil.copytree(source, copy)
            mutate(copy)
            ok = fires(lambda: checks.check_operation(
                copy, kind, run.SOLVER_TOL, run.STUDY_LADDER), expected)
            print(f"{'fired ' if ok else 'SILENT'}  {label}")
            if not ok:
                silent.append(label)
        copy = WORK / "repeat"
        shutil.copytree(dirs["heatflow"], copy)
        (copy / "verify.json").write_text(
            (copy / "verify.json").read_text().replace("residual", "Residual", 1))
        first = checks.artifact_digest(dirs["heatflow"])
        ok = fires(lambda: checks.check_same_artifacts(
            first, checks.artifact_digest(copy)), "different artifacts")
        print(f"{'fired ' if ok else 'SILENT'}  byte-identical repeats")
        if not ok:
            silent.append("byte-identical repeats")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        out_dir = run.OUT_DIR
        if out_dir.is_dir() and not any(out_dir.iterdir()):
            out_dir.rmdir()
    if silent:
        print("problems: " + "; ".join(silent))
        return 1
    print("every check fired on its corruption")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
