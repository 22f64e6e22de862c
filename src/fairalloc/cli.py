"""Command-line interface.

Seven commands over a scenario file: allocate, evaluate, optimize, certify,
pof, curve, mc-check. Machine-readable reports (JSON or CSV) go to --output
or stdout; human-readable summaries and errors go to stderr. Exit codes:
0 success, 1 validation error or infeasible constraints, 2 optimizer
non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import allocation, certificates, metrics, montecarlo, scenario_io
from .montecarlo import DEFAULT_SEED

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_OPTIMIZER = 2

DEFAULT_SAMPLES = 1_000_000
Z_LIMIT = 4.0  # mc-check flags a row whose |z| exceeds this many SEs


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the normal
    # validation path (exit 1) instead.
    def error(self, message):
        raise CliError(message)


# Every flag a command may read beyond --scenario, --output and --format. An
# "option" entry gives the flag a name other than its key.
_FLAGS = {
    "alpha": dict(type=float, help="fairness tolerance"),
    "alphas": dict(option="alpha", help="comma-separated fairness tolerances"),
    "r-over-z": dict(help="comma-separated budgets, as multiples of the total mean Z "
                          "(default: the scenario's resource)"),
    "epsilon": dict(type=float, help="lower-deviation epsilon"),
    "method": dict(choices=certificates.METHODS, default=certificates.EXACT_CDF,
                   help="certificate method"),
    "allocation": dict(help="comma-separated per-group amounts (default: mean-weighted)"),
    "delta": dict(type=float, help="target delta for threshold/pass columns"),
    "v-max": dict(type=float, help="grid end (default: twice the largest mean)"),
    "steps": dict(type=int, default=201, help="grid size (default 201)"),
    "seed": dict(type=int, help=f"sampling seed (default {DEFAULT_SEED})"),
    "samples": dict(type=int, help=f"sample count (default {DEFAULT_SAMPLES})"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `fairalloc` parser, built on first use and shared by every `main` call.

    parse_args keeps no state between calls, so reuse changes no report; it
    saves rebuilding the parser and its seven subparsers on every call.
    """
    parser = _Parser(prog="fairalloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        cmd.add_argument("--output", help="write the report here instead of stdout")
        cmd.add_argument("--format", choices=("json", "csv"), default="json")
        for flag in flags:
            spec = dict(_FLAGS[flag])
            cmd.add_argument(f"--{spec.pop('option', flag)}", **spec)
    return parser


def _floats(flag: str, text: str) -> list:
    """The numbers in flag's comma-separated text."""
    try:
        return [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise CliError(f"{flag} must be comma-separated numbers, got {text!r}") from exc


def _allocation(args, scenario) -> metrics.Allocation:
    """The --allocation amounts, or the mean-weighted split without the flag."""
    if args.allocation is None:
        return allocation.mean_weighted(scenario)
    alloc = metrics.Allocation(tuple(_floats("--allocation", args.allocation)))
    metrics.check_allocation(scenario, alloc)
    return alloc


def _columns(rows) -> dict:
    """The row dicts in rows as columns, headed by the first row's keys."""
    rows = list(rows)
    return {key: [row.get(key) for row in rows] for key in rows[0]}


def _emit(args, sf, settings: dict, result: dict, columns: dict, summary: str) -> None:
    """Write the report for args.command and its one-line summary.

    The JSON report is exactly json.dumps(envelope, indent=2) plus a newline,
    with any array in result written as its tolist(); its envelope leads its
    settings with the scenario path. columns (header -> list or 1-D array)
    is what only the CSV form reads: it gains the version and input digest
    as its last two columns.
    """
    envelope = scenario_io.report_envelope(
        args.command, {"scenario": args.scenario, **settings}, sf.digest, result
    )
    if args.format == "csv":
        count = len(next(iter(columns.values())))
        columns.setdefault("tool_version", [envelope["version"]] * count)
        columns.setdefault("input_digest", [envelope["input_digest"]] * count)
        text = scenario_io.rows_to_csv(columns)
    else:
        text = scenario_io.dumps_report(envelope) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _cmd_allocate(args, sf) -> None:
    scenario = sf.scenario
    alloc = allocation.mean_weighted(scenario)
    rows = [
        {"group": g.name, "mean": g.dist.mean(), "allocation": v}
        for g, v in zip(scenario.groups, alloc.values)
    ]
    result = {"resource": scenario.resource, "total_mean": scenario.total_mean, "groups": rows}
    _emit(args, sf, {}, result, _columns(rows),
          f"mean-weighted allocation over {scenario.size} groups, resource {scenario.resource}")


def _cmd_evaluate(args, sf) -> None:
    scenario = sf.scenario
    alloc = _allocation(args, scenario)
    report = metrics.evaluate(
        scenario, alloc, epsilon=args.epsilon, method=args.method, alpha=args.alpha
    )
    settings = {"epsilon": args.epsilon, "alpha": args.alpha,
                "method": args.method if args.epsilon is not None else None,
                "allocation": list(alloc.values)}
    _emit(args, sf, settings, report.to_dict(), _columns(report.to_csv_rows()),
          f"utilization {report.utilization:.6g}, fairness {report.fairness:.6g}")


def _cmd_optimize(args, sf) -> None:
    scenario = sf.scenario
    alpha = args.alpha
    if alpha is None:
        v_max = allocation.max_utilization(scenario)
        u_max = metrics.utilization(scenario, v_max)
    else:
        v_max, u_max, v_fair, u_fair = allocation._optima(scenario, alpha)
    result = {
        "max_utilization": {
            "allocation": list(v_max.values),
            "utilization": u_max,
            "fairness": metrics.fairness(scenario, v_max),
        },
        "alpha_fair": None,
    }
    rows = [
        {"group": g.name, "v_max_utilization": v, "max_utilization": u_max}
        for g, v in zip(scenario.groups, v_max.values)
    ]
    summary = f"max utilization {u_max:.6g}"
    if alpha is not None:
        result["alpha_fair"] = {
            "alpha": alpha,
            "allocation": list(v_fair.values),
            "utilization": u_fair,
            "fairness": metrics.fairness(scenario, v_fair),
        }
        for row, v in zip(rows, v_fair.values):
            row["v_alpha_fair"] = v
            row["alpha_fair_utilization"] = u_fair
        summary += f"; alpha-fair utilization {u_fair:.6g} at alpha={alpha}"
    _emit(args, sf, {"alpha": alpha}, result, _columns(rows), summary)


def _cmd_certify(args, sf) -> None:
    scenario = sf.scenario
    epsilon = args.epsilon
    if epsilon is None:
        raise CliError("certify requires --epsilon (or a defaults.epsilon in the scenario)")
    cert = certificates.scenario_certificate(scenario, epsilon, args.method)
    # checked here, not only inside the Chernoff thresholds, which some families lack
    target = args.delta if args.delta is None else certificates.check_delta(args.delta)
    rows = []
    for group, group_delta in zip(scenario.groups, cert.per_group_deltas):
        exact = certificates.exact_lower_deviation(group.dist, epsilon)
        try:
            chernoff = certificates.chernoff_delta(group.dist, epsilon)
        except certificates.CertificateError:
            chernoff = None
        threshold = None
        if target is not None:
            threshold = certificates.chernoff_threshold(group.dist, epsilon, target)
        rows.append(
            {
                "group": group.name,
                "mean": group.dist.mean(),
                "method": cert.method,
                "delta_exact": exact,
                "delta_chernoff": chernoff,
                "threshold": threshold,
                "ok": (group_delta <= target) if target is not None else None,
            }
        )
    _emit(args, sf,
          {"epsilon": epsilon, "method": args.method, "target_delta": target},
          {"certificate": cert.to_dict(), "groups": rows}, _columns(rows),
          f"certificate delta {cert.delta:.6g} at epsilon {epsilon} ({cert.method})")


def _cmd_pof(args, sf) -> None:
    base, epsilon = sf.scenario, args.epsilon
    if args.alpha is None:
        raise CliError("pof requires an explicit --alpha (or a defaults.alpha in the scenario)")
    # --alpha is text; a defaults.alpha is one number, kept as written
    alphas = _floats("--alpha", args.alpha) if isinstance(args.alpha, str) else [args.alpha]
    ratios = None if args.r_over_z is None else _floats("--r-over-z", args.r_over_z)
    cert = None
    if epsilon is not None:
        # the per-group deltas do not depend on the budget
        cert = certificates.scenario_certificate(base, epsilon, args.method)
    cells = []  # (lead columns, result), ratio-major
    for ratio in ratios or [None]:
        scenario, lead = base, {}
        if ratio is not None:
            scenario = metrics.Scenario(resource=ratio * base.total_mean, groups=base.groups)
            lead = {"r_over_z": ratio, "resource": scenario.resource}
        cells += [(lead, allocation.pof(scenario, alpha, cert)) for alpha in alphas]
    settings = {"alpha": alphas[0] if len(alphas) == 1 else alphas, "epsilon": epsilon,
                "method": args.method if epsilon is not None else None}
    if ratios is not None:
        settings["r_over_z"] = ratios
    if ratios is None and len(alphas) == 1:
        result = cells[0][1]
        report = result.to_dict()
        summary = (f"pof {result.pof:.9g} at alpha={alphas[0]} "
                   f"(unconstrained {result.unconstrained_utilization:.6g}, "
                   f"constrained {result.constrained_utilization:.6g})")
    else:
        report = [{**lead, **result.to_dict()} for lead, result in cells]
        pofs = [result.pof for _, result in cells]
        summary = f"pof {min(pofs):.9g} to {max(pofs):.9g} over {len(cells)} cells"
    _emit(args, sf, settings, report,
          _columns({**lead, **result.to_row()} for lead, result in cells), summary)


def _cmd_curve(args, sf) -> None:
    scenario = sf.scenario
    # twice the largest mean, held finite when that mean passes half the largest double
    v_max = args.v_max if args.v_max is not None else min(2.0 * max(scenario.means), sys.float_info.max)
    series = {
        group.name: scenario_io.emit_availability_curve(group.dist, v_max, args.steps)
        for group in scenario.groups
    }
    table = np.concatenate(list(series.values()))
    columns = {"group": [name for name in series for _ in range(args.steps)],
               "v": table[:, 0], "availability": table[:, 1], "expected_min": table[:, 2]}
    _emit(args, sf, {"v_max": v_max, "steps": args.steps},
          {"v_max": v_max, "steps": args.steps, "series": series},
          columns, f"curves for {scenario.size} groups over [0, {v_max}] in {args.steps} steps")


def _cmd_mc_check(args, sf) -> None:
    scenario = sf.scenario
    alloc = _allocation(args, scenario)
    if args.seed is not None and args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    mc = montecarlo.estimate_report(scenario, alloc, samples, seed)

    def comparison(quantity, exact, estimate, se_floor):
        gap = estimate.value - exact
        se = max(estimate.standard_error, se_floor)
        if se > 0.0:
            z = gap / se
        else:
            # only at v = 0 on a law with C >= 0, where both means are exactly 0
            z = 0.0 if gap == 0.0 else float("inf")
        return {
            "quantity": quantity,
            "exact": exact,
            "mc_value": estimate.value,
            "se": estimate.standard_error,
            "se_floor": se_floor,
            "z_score": z,
            "ok": abs(z) <= Z_LIMIT,
        }

    # When few draws fall below v the sample SE is 0 or too small. By the
    # rule of three, Pr[C < v] may still be up to 3/n, which leaves the mean
    # of min(C, v) an error of up to sqrt(3)/n times the root-mean-square
    # shortfall v - C of such a draw: z divides by at least that.
    rows = []
    floors = []
    ems = metrics.expected_mins(scenario, alloc)
    for group, v, em, report in zip(scenario.groups, alloc.values, ems, mc.groups):
        floor = math.sqrt(3.0) / samples * group.dist.shortfall_bound(v)
        floors.append(floor)
        mean = group.dist.mean()
        rows.append(comparison(f"expected_min[{group.name}]", em, report.expected_min, floor))
        rows.append(comparison(f"availability[{group.name}]",
                               metrics.clamp_availability(em / mean), report.availability,
                               floor / mean))
    rows.append(comparison("utilization", sum(ems), mc.utilization, math.hypot(*floors)))
    all_ok = all(row["ok"] for row in rows)
    _emit(args, sf, {"seed": seed, "samples": samples, "allocation": list(alloc.values)},
          {"rows": rows, "all_ok": all_ok, "mc_report": mc.to_dict()},
          _columns(rows), f"{len(rows)} quantities compared at {samples} samples: "
          + (f"all |z| <= {Z_LIMIT:g}" if all_ok else f"SOME CHECKS EXCEED {Z_LIMIT:g} SE"))


# command -> (handler, help text, flags it reads beyond --scenario, --output, --format)
COMMANDS = {
    "allocate": (_cmd_allocate, "mean-weighted allocation", ()),
    "evaluate": (_cmd_evaluate, "availability/utilization/fairness of an allocation",
                 ("alpha", "epsilon", "method", "allocation")),
    "optimize": (_cmd_optimize, "max-utilization and alpha-fair allocations", ("alpha",)),
    "certify": (_cmd_certify, "per-group lower-deviation certificate table",
                ("epsilon", "method", "delta")),
    "pof": (_cmd_pof, "price of fairness at each alpha and budget",
            ("alphas", "epsilon", "method", "r-over-z")),
    "curve": (_cmd_curve, "availability curve per group", ("v-max", "steps")),
    "mc-check": (_cmd_mc_check, "Monte Carlo vs exact comparison table",
                 ("seed", "samples", "allocation")),
}


def main(argv=None) -> int:
    """Run one command and return its exit code, printing any error as one line.

    Every input error (CliError, ScenarioError, DistributionError and
    CertificateError) is a ValueError.
    """
    try:
        args = build_parser().parse_args(argv)
        sf = scenario_io.load_scenario_path(args.scenario)
        # A flag the command reads but was not given takes the scenario's
        # default; getattr's default skips the flags the command lacks.
        for key, value in sf.defaults.items():
            if getattr(args, key, value) is None:
                setattr(args, key, value)
        COMMANDS[args.command][0](args, sf)
        return EXIT_OK
    except allocation.InfeasibleError as exc:
        # no allocation meets the constraints: a property of the input
        print(f"fairalloc: infeasible: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except allocation.OptimizerError as exc:
        print(f"fairalloc: optimizer error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (ValueError, OSError) as exc:
        print(f"fairalloc: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
