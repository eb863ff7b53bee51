"""One benchmark process: a `gaugeflow` command, or only its set-up.

    python3 perfbench/worker.py '<spec json>'

With spec mode "setup" the process imports numpy and gaugeflow, loads the
workload's configuration and exits; the parent times it from spawn to exit.
With mode "op" it then calls the CLI's `main` and prints one JSON line with
the command's exit code, wall and CPU time (user plus system, all threads)
from the call into the CLI until it returns, and the process's peak resident
memory.  With a trace path set, the spans of the call are written there.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import numpy  # noqa: F401  (set-up cost that every command pays)

from gaugeflow import cli, config


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec: dict) -> int:
    if spec["mode"] == "setup":
        config.load_config(spec["config"], spec["overrides"])
        return 0
    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.install(spec["op"])
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        wall0, cpu0 = time.perf_counter(), _cpu()
        code = cli.main(spec["argv"])
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(spec["trace"])
    print(json.dumps({"code": code, "wall_s": wall, "cpu_s": cpu,
                      "peak_rss_mb": peak_kib * 1024 / 1e6,
                      "module": cli.__file__}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(json.loads(sys.argv[1])))
