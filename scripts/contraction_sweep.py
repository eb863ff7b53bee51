#!/usr/bin/env python3
"""Sweep the connection size and chart the contraction of the pair solver.

For each requested Lorentz size the script builds a synthetic coexact
connection, fixes the Coulomb gauge, measures the empirical contraction
factor on random states, and (inside the solvable regime) runs the full
solve to report iterations and the final residual.  Sizes at or above the
regime limit are expected to be refused, and the refusal is recorded rather
than treated as a failure.

Usage:
    python scripts/contraction_sweep.py --res 32 --eps 1e-3 1e-2 1e-1 1.0
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from gaugeflow import gauge, solver, synth
from gaugeflow.forms import Grid


def sweep_point(grid: Grid, m: int, eps: float, seed: int, samples: int) -> dict:
    # converted once: the gauge and the solve read the same Connection
    omega = synth.Connection.of(synth.synthetic_connection(
        grid, m, np.random.default_rng(seed), kmax=2, target_norm=eps))
    pmap = solver.PicardMap.of(gauge.minimize_gauge(omega))
    kappa = solver.measure_contraction(
        pmap, np.random.default_rng(seed + 1), samples=samples)
    row = {"epsilon": eps, "kappa": kappa, "iterations": "", "residual_l2": "",
           "status": "ok"}
    try:
        _, _, report = solver.solve_pair(omega, pmap)
    except solver.SolverError as exc:
        row["status"] = str(exc).split(":")[0]
    else:
        row["iterations"] = report.iterations
        row["residual_l2"] = report.residual_l2
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--res", type=int, default=32)
    parser.add_argument("--target", type=int, default=3,
                        help="value dimension m of the connection")
    parser.add_argument("--eps", type=float, nargs="+",
                        default=[1e-3, 1e-2, 1e-1, 1.0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--samples", type=int, default=3,
                        help="random states probed per contraction estimate")
    parser.add_argument("--out", type=Path, default=Path("contraction_sweep.csv"))
    args = parser.parse_args(argv)

    grid = Grid(args.dim, args.res)
    rows = []
    for eps in args.eps:
        row = sweep_point(grid, args.target, eps, args.seed, args.samples)
        rows.append(row)
        print(f"eps {eps:9.3e}  kappa {row['kappa']:9.3e}  "
              f"iters {row['iterations'] or '-':>3}  "
              f"residual {row['residual_l2'] or '-'}  [{row['status']}]")

    kappas = [row["kappa"] for row in rows]
    if kappas == sorted(kappas):
        print("contraction factor grows monotonically with the size")

    with args.out.open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=("epsilon", "kappa", "iterations",
                                "residual_l2", "status"),
            lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
