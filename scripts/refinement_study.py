#!/usr/bin/env python3
"""Refinement study of the conservation-law residual on a heat-flow map.

Relaxes a seeded perturbation of a constant sphere map, constructs the
conservation pair at each resolution of a doubling ladder, and fits the
order of the residual in the grid spacing.  This is the end-to-end
certificate: the residual must sit inside the defect budget at every
resolution and shrink at first order or better.

Usage:
    python scripts/refinement_study.py --out runs/refinement
"""

import argparse
import json
import sys
from pathlib import Path

from gaugeflow import pipeline
from gaugeflow.config import RunConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ladder", type=int, nargs="+", default=[16, 32, 64])
    parser.add_argument("--delta", type=float, default=3e-4,
                        help="amplitude of the seeded perturbation")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--band", type=int, default=4,
                        help="wavenumber shell of the perturbation")
    parser.add_argument("--flow-time", type=float, default=0.0137)
    parser.add_argument("--out", type=Path, default=Path("runs/refinement"))
    args = parser.parse_args(argv)

    cfg = RunConfig(
        map_kind="heatflow", base="constant", delta=args.delta,
        seed=args.seed, kmin=args.band, kmax=args.band,
        flow_time=args.flow_time, resolutions=tuple(args.ladder),
        out_dir=str(args.out))
    try:
        pipeline.run(cfg, "study")
    except pipeline.PipelineError as exc:
        print(f"refinement study failed: {exc}", file=sys.stderr)
        return 1

    doc = json.loads((args.out / "study.json").read_text())
    residual = doc["residual"]
    for res, l2 in residual["ladder"]:
        print(f"res {res:4d}  h {1.0 / res:8.5f}  residual {l2:.6e}")
    print(f"fitted order: {residual['order']}")
    print(f"budget at the finest level: {residual['budget']:.6e}")
    print(f"artifacts in {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
