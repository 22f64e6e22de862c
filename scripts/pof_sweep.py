#!/usr/bin/env python3
"""Sweep the price of fairness over resource levels and fairness tolerances.

For a scenario file, rescales the budget across a grid of R/Z ratios and
measures PoF at each alpha, alongside the certificate-implied bounds. The
output CSV has one row per (ratio, alpha) pair and is plot-ready.
"""

import argparse
import sys

from fairalloc import Scenario, pof, scenario_certificate
from fairalloc.scenario_io import load_scenario_path, rows_to_csv

COLUMNS = [
    "r_over_z", "resource", "alpha", "pof",
    "unconstrained_utilization", "constrained_utilization",
    "bound_1_over_1_minus_alpha", "bound_1_plus_2alpha",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--epsilon", type=float, default=0.1, help="certificate epsilon")
    parser.add_argument(
        "--ratios", default="0.5,0.75,0.9,1.0,1.25",
        help="comma-separated R/Z grid",
    )
    parser.add_argument(
        "--alphas", default="0.05,0.1,0.25,0.5",
        help="comma-separated fairness tolerances",
    )
    parser.add_argument("--output", default=None, help="CSV path (default stdout)")
    args = parser.parse_args()

    base = load_scenario_path(args.scenario).scenario
    total = base.total_mean
    ratios = [float(x) for x in args.ratios.split(",")]
    alphas = [float(x) for x in args.alphas.split(",")]

    # the per-group deltas do not depend on the budget
    cert = scenario_certificate(base, args.epsilon)
    rows = []
    for ratio in ratios:
        sc = Scenario(resource=ratio * total, groups=base.groups)
        for alpha in alphas:
            result = pof(sc, alpha, certificate=cert)
            rows.append(
                {
                    "r_over_z": ratio,
                    "resource": sc.resource,
                    "alpha": alpha,
                    "pof": result.pof,
                    "unconstrained_utilization": result.unconstrained_utilization,
                    "constrained_utilization": result.constrained_utilization,
                    "bound_1_over_1_minus_alpha": result.bound_1_over_1_minus_alpha,
                    "bound_1_plus_2alpha": result.bound_1_plus_2alpha,
                }
            )
            print(
                f"R/Z={ratio} alpha={alpha}: pof={result.pof:.6f}",
                file=sys.stderr,
            )
    text = rows_to_csv(rows, COLUMNS)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
