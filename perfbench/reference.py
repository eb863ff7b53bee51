"""Reference figures: the benchmark over several seeds, summarised per metric.

    python3 perfbench/reference.py [--workloads W ...] [--seeds 1 2 ...]
                                   [--seconds S] [--trace 0|1] [--threads N]
                                   [--label NAME]

Runs `perfbench/run.py` once per (workload, seed), one after another, with
the run length from BENCHMARK.json unless --seconds is given.  Prints, for
every metric, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and their distance as a share of the
median, next to the metric's bound, plus the failed share of operations.
All results are written to perfbench/results/<label>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        help="passed to run.py (default: its own)")
    parser.add_argument("--label", default="reference",
                        help="results go to perfbench/results/<label>-trace<T>.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {}
    for workload in args.workloads:
        runs[workload] = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]
            if args.threads is not None:
                cmd += ["--threads", str(args.threads)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[workload].append(result)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in
                             list(result["metrics"].items())[:6])
                  + f" attempted={result['attempted']} failed={result['failed']}"
                  + f" correct={result['correct']}", flush=True)
        summarise(workload, runs[workload], bounds)

    out = BENCH_DIR / "results"
    out.mkdir(exist_ok=True)
    (out / f"{args.label}-trace{args.trace}.json").write_text(
        json.dumps(runs, indent=1) + "\n")
    return 0


def summarise(workload: str, results: list, bounds: dict):
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"== {workload}: {len(results)} runs, {attempted} operations, "
          f"{failed} failed, all correct: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        tail = f"  bound {bound}" if bound is not None else ""
        print(f"  {name:40s} median {median:12.6g} {unit:6s} "
              f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}{tail}")


if __name__ == "__main__":
    raise SystemExit(main())
