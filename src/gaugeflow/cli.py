"""Command-line entry point: one subcommand per pipeline stage."""

from __future__ import annotations

import argparse
import sys

from . import pipeline
from .config import load_config

_EPILOG = """\
commands:
  generate  build the map and report its tension and energy
  omega     assemble the connection and report its norms
  gauge     rotate into Coulomb gauge (rotation + potential fields)
  solve     iterate to the conservation pair (A, B)
  verify    residual certificates for the conservation law
  study     rerun verify across the resolution ladder and fit the order

CSV columns (fixed order; new columns append only):
  solve.csv   iteration,difference,ratio
  verify.csv  metric,value
  study.csv   resolution,h,residual_l2,residual_sup,budget,order

plot data (two columns, space separated, '#' header):
  plot_iteration_vs_kappa.dat, plot_h_vs_residual.dat
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaugeflow",
        description="Conservation-law laboratory for harmonic-map systems "
                    "on the periodic torus.",
        epilog=_EPILOG, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=pipeline.STAGES,
                        help="pipeline stage to run (prerequisites run too)")
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="INI configuration file")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="SECTION.KEY=VALUE",
                        help="override a configuration key (repeatable)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            args.overrides.append(f"output.dir={args.out}")
        written = pipeline.run(load_config(args.config, args.overrides), args.command)
    except (pipeline.PipelineError, ValueError, OSError) as exc:
        print(f"gaugeflow: {exc}", file=sys.stderr)
        return 1
    for stage, paths in written.items():
        for path in paths:
            print(f"{stage}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
