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
import json
import math
import sys

from . import allocation, certificates, metrics, montecarlo, scenario_io

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_OPTIMIZER = 2

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 1_000_000


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through the normal
    # validation path (exit 1) instead.
    def error(self, message):
        raise CliError(message)


# Every flag a command may read beyond --scenario, --output and --format.
_FLAGS = {
    "alpha": dict(type=float, help="fairness tolerance"),
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
            cmd.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _allocation(args, scenario) -> metrics.Allocation:
    """The --allocation amounts, or the mean-weighted split without the flag."""
    if not args.allocation:
        return allocation.mean_weighted(scenario)
    try:
        values = tuple(float(part) for part in args.allocation.split(","))
    except ValueError as exc:
        raise CliError(f"--allocation must be comma-separated numbers, got {args.allocation!r}") from exc
    alloc = metrics.Allocation(values)
    metrics.check_allocation(scenario, alloc)
    return alloc


def write(text: str, path) -> None:
    """Write a report to path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, sf, settings: dict, result: dict, csv_rows, summary: str) -> None:
    """Write the report for args.command and its one-line summary.

    The JSON envelope leads its settings with the scenario path; the CSV
    form carries the version and input digest on every row, and its header
    is the first row's keys.
    """
    envelope = scenario_io.report_envelope(
        args.command, {"scenario": args.scenario, **settings}, sf.digest, result
    )
    if args.format == "csv":
        for row in csv_rows:
            row.setdefault("tool_version", envelope["version"])
            row.setdefault("input_digest", envelope["input_digest"])
        text = scenario_io.rows_to_csv(csv_rows, list(csv_rows[0]))
    else:
        text = json.dumps(envelope, indent=2) + "\n"
    write(text, args.output)
    print(summary, file=sys.stderr)


def _cmd_allocate(args, sf) -> None:
    scenario = sf.scenario
    alloc = allocation.mean_weighted(scenario)
    rows = [
        {"group": g.name, "mean": g.dist.mean(), "allocation": v}
        for g, v in zip(scenario.groups, alloc.values)
    ]
    result = {"resource": scenario.resource, "total_mean": scenario.total_mean, "groups": rows}
    _emit(args, sf, {}, result, rows,
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
    _emit(args, sf, settings, report.to_dict(), report.to_csv_rows(),
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
    _emit(args, sf, {"alpha": alpha}, result, rows, summary)


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
          {"certificate": cert.to_dict(), "groups": rows}, rows,
          f"certificate delta {cert.delta:.6g} at epsilon {epsilon} ({cert.method})")


def _cmd_pof(args, sf) -> None:
    scenario = sf.scenario
    alpha, epsilon = args.alpha, args.epsilon
    if alpha is None:
        raise CliError("pof requires an explicit --alpha (or a defaults.alpha in the scenario)")
    cert = None
    if epsilon is not None:
        cert = certificates.scenario_certificate(scenario, epsilon, args.method)
    result = allocation.pof(scenario, alpha, cert)
    settings = {"alpha": alpha, "epsilon": epsilon,
                "method": args.method if epsilon is not None else None}
    _emit(args, sf, settings, result.to_dict(), [result.to_row()],
          f"pof {result.pof:.9g} at alpha={alpha} "
          f"(unconstrained {result.unconstrained_utilization:.6g}, "
          f"constrained {result.constrained_utilization:.6g})")


def _cmd_curve(args, sf) -> None:
    scenario = sf.scenario
    v_max = args.v_max if args.v_max is not None else 2.0 * max(scenario.means)
    rows = []
    series = {}
    for group in scenario.groups:
        table = scenario_io.emit_availability_curve(group.dist, v_max, args.steps)
        series[group.name] = [[v, q, em] for v, q, em in table]
        rows.extend(
            {"group": group.name, "v": v, "availability": q, "expected_min": em}
            for v, q, em in table
        )
    _emit(args, sf, {"v_max": v_max, "steps": args.steps},
          {"v_max": v_max, "steps": args.steps, "series": series},
          rows, f"curves for {scenario.size} groups over [0, {v_max}] in {args.steps} steps")


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
            z = 0.0 if abs(gap) <= 1e-12 else float("inf")
        return {
            "quantity": quantity,
            "exact": exact,
            "mc_value": estimate.value,
            "se": estimate.standard_error,
            "se_floor": se_floor,
            "z_score": z,
            "ok": abs(z) <= 4.0,
        }

    # When few draws fall below v the sample SE is 0 or too small. By the
    # rule of three, Pr[C < v] may still be up to 3/n, which leaves the mean
    # of min(C, v) an error of up to sqrt(3)/n times the root-mean-square
    # shortfall v - C of such a draw: z divides by at least that.
    rows = []
    floors = []
    for group, v, report in zip(scenario.groups, alloc.values, mc.groups):
        floor = math.sqrt(3.0) / samples * group.dist.shortfall_bound(v)
        floors.append(floor)
        rows.append(comparison(f"expected_min[{group.name}]", group.dist.expected_min(v),
                               report.expected_min, floor))
        rows.append(comparison(f"availability[{group.name}]", metrics.availability(group.dist, v),
                               report.availability, floor / group.dist.mean()))
    rows.append(comparison("utilization", metrics.utilization(scenario, alloc), mc.utilization,
                           math.hypot(*floors)))
    all_ok = all(row["ok"] for row in rows)
    _emit(args, sf, {"seed": seed, "samples": samples, "allocation": list(alloc.values)},
          {"rows": rows, "all_ok": all_ok, "mc_report": mc.to_dict()},
          rows, f"{len(rows)} quantities compared at {samples} samples: "
          + ("all |z| <= 4" if all_ok else "SOME CHECKS EXCEED 4 SE"))


# command -> (handler, help text, flags it reads beyond --scenario, --output, --format)
COMMANDS = {
    "allocate": (_cmd_allocate, "mean-weighted allocation", ()),
    "evaluate": (_cmd_evaluate, "availability/utilization/fairness of an allocation",
                 ("alpha", "epsilon", "method", "allocation")),
    "optimize": (_cmd_optimize, "max-utilization and alpha-fair allocations", ("alpha",)),
    "certify": (_cmd_certify, "per-group lower-deviation certificate table",
                ("epsilon", "method", "delta")),
    "pof": (_cmd_pof, "price of fairness at a given alpha", ("alpha", "epsilon", "method")),
    "curve": (_cmd_curve, "availability curve per group", ("v-max", "steps")),
    "mc-check": (_cmd_mc_check, "Monte Carlo vs exact comparison table",
                 ("seed", "samples", "allocation")),
}


def run(prog: str, action) -> int:
    """Call action() and return its exit code, printing any error as one `prog: ...` line.

    Every input error (CliError, ScenarioError, DistributionError and
    CertificateError) is a ValueError.
    """
    try:
        action()
        return EXIT_OK
    except allocation.InfeasibleError as exc:
        # no allocation meets the constraints: a property of the input
        print(f"{prog}: infeasible: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except allocation.OptimizerError as exc:
        print(f"{prog}: optimizer error: {exc}", file=sys.stderr)
        return EXIT_OPTIMIZER
    except (ValueError, OSError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main(argv=None) -> int:
    def action():
        args = build_parser().parse_args(argv)
        sf = scenario_io.load_scenario_path(args.scenario)
        # A flag the command reads but was not given takes the scenario's
        # default; getattr's default skips the flags the command lacks.
        for key, value in sf.defaults.to_dict().items():
            if getattr(args, key, value) is None:
                setattr(args, key, value)
        COMMANDS[args.command][0](args, sf)

    return run("fairalloc", action)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
