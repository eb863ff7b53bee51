"""gaugeflow benchmark: one workload as a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation is one `gaugeflow` command
in its own process (perfbench/worker.py), started only after the previous
one returned, until the next one would end past S seconds.  The checkout's
own `src/` is imported; nothing is installed.  Every operation's artifacts
are checked against computations made apart from the program
(perfbench/checks.py), and repeated operations must write identical bytes.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones (medians over the run's operations; set-up is the median of
several set-up-only processes).  With --trace 1 each round is an untraced
operation followed by a traced one, and the metrics are the per-layer
figures of the traced operations (see perfbench/spans.py) plus the tracing
overhead.  The workloads, seeds and thread settings are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_PROBES = 11
# Each run ends well inside 180 s even when an operation hangs.
HARD_LIMIT_S = 170.0
SOLVER_TOL = 1e-8
STUDY_LADDER = spans.STUDY_RESOLUTIONS  # the rungs the study.res*.s metrics name
MAX_THREADS = 2


@dataclass(frozen=True)
class Workload:
    command: str
    config: str
    overrides: tuple
    kind: str  # which output checks apply, see checks.check_operation


WORKLOADS = {
    "heatflow-verify": Workload(
        "verify", "configs/heatflow_study.ini",
        ("grid.res=32", f"solver.tol={SOLVER_TOL}"), "heatflow"),
    "contracting-verify": Workload(
        "verify", "configs/synthetic_coexact.ini",
        ("grid.res=32", "omega.epsilon=0.3", "omega.exact_frac=0.5",
         f"solver.tol={SOLVER_TOL}"), "contracting"),
    "heatflow-study": Workload(
        "study", "configs/heatflow_study.ini",
        ("study.resolutions=" + " ".join(map(str, STUDY_LADDER)),
         "map.kmin=2", "map.kmax=2", f"solver.tol={SOLVER_TOL}"), "study"),
}

# The shipped configs' seeds: heat-flow map 42, synthetic connection 5,
# uniqueness probe 7.
BASE_SEEDS = (42, 5, 7)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def program_overrides(workload: Workload, seed: int, base=BASE_SEEDS) -> list:
    """Configuration overrides of one workload for benchmark seed `seed`.

    The seed offsets the heat-flow map seed and the probe seed.  The synthetic
    connection keeps its base seed: its gauge descent takes 11 to 13
    iterations on seeds 5 to 12, which alone moves an operation's time by
    about 10%, more than runs of one or two operations can average out.
    """
    map_seed, synthetic_seed, probe_seed = base
    offset = seed % 2 ** 31
    if workload.kind == "contracting":
        map_seed = synthetic_seed
    else:
        map_seed += offset
    return list(workload.overrides) + [f"map.seed={map_seed}",
                                       f"solver.probe_seed={probe_seed + offset}"]


def default_threads() -> int:
    return min(MAX_THREADS, os.cpu_count() or 1)


def child_env(threads: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["GAUGEFLOW_THREADS"] = str(threads or default_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns worker processes for one workload and checks what they write."""

    def __init__(self, workload: Workload, overrides: list, run_dir: Path,
                 threads: int | None = None):
        self.workload = workload
        self.overrides = overrides
        self.run_dir = run_dir
        self.env = child_env(threads)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_digest = None

    def _spawn(self, spec: dict, timeout: float):
        return subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(spec)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=timeout)

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def setup_time(self) -> float:
        spec = {"mode": "setup", "config": str(ROOT / self.workload.config),
                "overrides": self.overrides}
        start = time.perf_counter()
        proc = self._spawn(spec, max(1.0, self.remaining()))
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        return elapsed

    def operation(self, index: int, trace_path: Path | None):
        """Run one command; returns its measurements, or None if it failed."""
        self.attempted += 1
        out = self.run_dir / f"op{index}"
        argv = [self.workload.command, "--config", str(ROOT / self.workload.config),
                "--out", str(out)]
        for item in self.overrides:
            argv += ["--set", item]
        spec = {"mode": "op", "argv": argv, "op": f"op{index}",
                "trace": str(trace_path) if trace_path else None}
        try:
            proc = self._spawn(spec, max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.failed += 1
            print(f"op{index}: timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not proc.stdout.strip():
            self.failed += 1
            print(f"op{index}: worker failed: {proc.stderr.strip()[-500:]}",
                  file=sys.stderr)
            return None
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["module"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"gaugeflow was imported from {result['module']}, "
                               f"not from the checkout {ROOT}")
        if result["code"] != 0:
            self.failed += 1
            print(f"op{index}: gaugeflow exited {result['code']}: "
                  f"{proc.stderr.strip()[-500:]}", file=sys.stderr)
            return None
        self._check(out)
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, out: Path):
        try:
            checks.check_operation(out, self.workload.kind, SOLVER_TOL, STUDY_LADDER)
            digest = checks.artifact_digest(out)
            if self.first_digest is None:
                self.first_digest = digest
            else:
                checks.check_same_artifacts(self.first_digest, digest)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            self.problems.append(f"{out.name}: {exc}")
            print(f"{out.name}: check failed: {exc}", file=sys.stderr)


def measure(runner: Runner, seconds: int, trace: bool, spans_copy: Path) -> dict:
    deadline = runner.started + seconds
    setups = []
    if not trace:
        runner.setup_time()  # fills the bytecode cache; users do not pay that again
        setups = [runner.setup_time() for _ in range(SETUP_PROBES)]
    plain, traced, round_times = [], [], []
    index = 0
    while True:
        began = time.perf_counter()
        result = runner.operation(index, None)
        index += 1
        if result is not None:
            plain.append(result)
        if trace:
            trace_path = runner.run_dir / f"op{index}.spans.json"
            if runner.operation(index, trace_path) is not None:
                traced.append(spans.load(trace_path))
                RESULTS_DIR.mkdir(exist_ok=True)
                shutil.copyfile(trace_path, spans_copy)
            index += 1
        round_times.append(time.perf_counter() - began)
        now = time.perf_counter()
        if now + statistics.median(round_times) > deadline:
            break
        if runner.remaining() < 2 * max(round_times):
            break
    if not plain or (trace and not traced):
        raise RuntimeError("no operation of this run succeeded")
    if not trace:
        return {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "cpu_s": statistics.median(r["cpu_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
    per_op = [spans.summarize(doc) for doc in traced]
    metrics = {name: statistics.median(op[name] for op in per_op)
               for name in per_op[0]}
    metrics["trace.overhead_s"] = (metrics["pipeline.run.s"]
                                   - statistics.median(r["wall_s"] for r in plain))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to the map and probe seeds; "
                             "0 runs the shipped seeds")
    parser.add_argument("--base-seeds", type=int, nargs=3, default=BASE_SEEDS,
                        metavar=("MAP", "SYNTHETIC", "PROBE"),
                        help="replace the shipped seeds (default %(default)s)")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=default_threads(),
                        help="GAUGEFLOW_THREADS of the study (default "
                             "%(default)s, at most the core count)")
    args = parser.parse_args(argv)
    if not 1 <= args.threads <= (os.cpu_count() or 1):
        parser.error(f"--threads must lie in 1..{os.cpu_count() or 1}")
    workload = WORKLOADS[args.workload]
    missing = [path for path in ("src/gaugeflow/cli.py", workload.config)
               if not (ROOT / path).is_file()]
    if missing:
        print(f"not a gaugeflow checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2

    run_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    runner = Runner(workload, program_overrides(workload, args.seed, args.base_seeds),
                    run_dir, args.threads)
    try:
        metrics = measure(runner, args.seconds, bool(args.trace),
                          RESULTS_DIR / f"spans-{args.workload}.json")
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if OUT_DIR.is_dir() and not any(OUT_DIR.iterdir()):
            OUT_DIR.rmdir()

    units = END_TO_END_UNITS if not args.trace else spans.UNITS
    print(json.dumps({
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
