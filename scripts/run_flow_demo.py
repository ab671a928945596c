#!/usr/bin/env python3
"""Heat-flow energy demo: trace a problem file over time and print the limit.

Examples
--------
    python3 scripts/run_flow_demo.py problems/holder_boxes.json
    python3 scripts/run_flow_demo.py problems/lifted_section_triple.json --tmax 100

A file without profiles, a negative --tmax, or a --quad-tol that is not a
finite number > 0 exits 2, as ``blflow flow`` does.
"""

import argparse
import sys

from blflow import monotonicity_scan
from blflow.cli import EXIT_INPUT, INPUT_ERRORS, _bellman_of, _certificate_of, positive_float
from blflow.heatflow import QUAD_TOL, time_grid
from blflow.io import parse_problem


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", help="problem JSON with profiles")
    parser.add_argument("--tmax", type=float, default=None)
    parser.add_argument("--quad-tol", type=positive_float, default=QUAD_TOL)
    args = parser.parse_args()

    try:
        with open(args.file, encoding="utf-8") as fh:
            problem = parse_problem(fh.read())
        B = _bellman_of(problem)
        cert, _ = _certificate_of(problem)
        trace, verdict = monotonicity_scan(problem.system, cert, B,
                                           problem.profiles, times=time_grid(args.tmax),
                                           quad_tol=args.quad_tol)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    # refinement: mesh doublings of the quadrature, 0 for a closed form
    print(f"{'t':>12}  {'energy':>20}  {'halfwidth':>10}  refinement")
    for t, v, L, lev in zip(trace.times, trace.values,
                            trace.halfwidths, trace.levels):
        print(f"{t:12.4g}  {v:20.15f}  {L:10.3f}  {int(lev)}")
    print(f"monotone: {verdict.monotone} ({verdict.label}); "
          f"limit {verdict.limit_value:.15f}; final gap {verdict.final_gap:.3e}")


if __name__ == "__main__":
    main()
