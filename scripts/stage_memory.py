#!/usr/bin/env python3
"""Peak memory and wall time of each pipeline stage, each in its own process.

For every stage the configuration can run, the script starts
`gaugeflow STAGE` (which runs the stage's prerequisites too) in a child
process that writes into a temporary directory, and prints the child's exit
code, wall time and peak resident memory (`ru_maxrss` from os.wait4, 1 MB =
10^6 bytes).  A synthetic connection has no map, so its configurations skip
`generate`.  The children import gaugeflow from this checkout's src/.

Linux carries the spawning process's peak RSS into a child's `ru_maxrss`
at exec, so every reading is at least this script's own peak (numpy and
gaugeflow imported, about 35 MB), which each child reaches anyway.

Usage:
    python scripts/stage_memory.py --config configs/synthetic_coexact.ini \
        --set omega.epsilon=0.3 --set omega.exact_frac=0.5
"""

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gaugeflow import config, pipeline

SRC = Path(__file__).resolve().parents[1] / "src"


def run_stage(stage: str, config_path: str, overrides: list, out: str) -> dict:
    """Run one stage in a child process; its exit code, wall time and peak RSS."""
    argv = [sys.executable, "-m", "gaugeflow.cli", stage, "--config", config_path,
            "--out", out]
    for override in overrides:
        argv += ["--set", override]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {"stage": stage, "exit": child.returncode, "wall_s": wall,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="INI configuration file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override a configuration key (repeatable)")
    args = parser.parse_args(argv)

    cfg = config.load_config(args.config, args.overrides)
    stages = [stage for stage in pipeline.STAGES
              if not (stage == "generate" and cfg.map_kind == "synthetic_omega")]
    print(f"{'stage':<10}{'exit':>6}{'wall_s':>10}{'peak_rss_mb':>14}")
    worst = 0
    for stage in stages:
        with tempfile.TemporaryDirectory() as out:
            row = run_stage(stage, args.config, args.overrides, out)
        print(f"{row['stage']:<10}{row['exit']:>6}{row['wall_s']:>10.2f}"
              f"{row['peak_rss_mb']:>14.1f}", flush=True)
        worst = max(worst, abs(row["exit"]))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
