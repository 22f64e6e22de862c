"""Correctness checks for every benchmark task.

A task passes when its output satisfies the invariants below and, for an
optimization, matches the reference value recorded for the same scenario
text and alpha:

- an allocation has one entry per group, every entry >= 0, and sums to R
  within 1e-9 * max(R, 1);
- an alpha-fair allocation has fairness Q <= alpha + 1e-6;
- max-utilization U equals the reference within 1e-9 relative;
- alpha-fair U is at least the reference minus 1e-6 * U (an improvement
  passes);
- pof >= 1 - 1e-9;
- CLI output parses, and mc-check reports all_ok. Monte Carlo values are
  not compared with recorded ones, so a change of sampling streams is not a
  failure.

A problem is either a wrong output (it contradicts a check) or a failure
the program reported itself: an exception, a nonzero exit code, or an
mc-check row with |z| > 4 of the known kind, where almost every sample is
clipped at v and the sample standard error is degenerate (see
``mc_row_problems``). Both make the task fail; only wrong outputs make the
run incorrect. Any other mc-check row with |z| > 4 is a wrong output, as is
an optimization with no recorded reference.

References live in ``references.json`` next to this file, keyed by a digest
of the scenario text and alpha; ``record_references.py`` writes them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("references.json")


def reference_key(text: str, alpha) -> str:
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]
    return f"{digest}|{'-' if alpha is None else repr(float(alpha))}"


def load_references() -> dict:
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as handle:
            return json.load(handle)["values"]
    except FileNotFoundError:
        return {}


def allocation_problems(values, scenario, label) -> list:
    if len(values) != scenario.size:
        return [f"{label} has {len(values)} entries for {scenario.size} groups"]
    problems = []
    if any(not math.isfinite(v) or v < 0.0 for v in values):
        problems.append(f"{label} has a negative or non-finite entry")
    budget = scenario.resource
    total = math.fsum(values)
    if not abs(total - budget) <= 1e-9 * max(budget, 1.0):
        problems.append(f"{label} sums to {total!r}, expected {budget!r}")
    return problems


def fairness_gap(scenario, values) -> float:
    qs = [g.dist.expected_min(max(v, 0.0)) / g.dist.mean() for g, v in zip(scenario.groups, values)]
    return max(qs) - min(qs)


def alpha_fair_problems(values, scenario, alpha, label) -> list:
    problems = allocation_problems(values, scenario, label)
    if not problems:
        gap = fairness_gap(scenario, values)
        if not gap <= alpha + 1e-6:
            problems.append(f"{label} has fairness {gap!r} > alpha {alpha!r} + 1e-6")
    return problems


def utilization_problems(u_max, u_fair, reference) -> list:
    """Compare U values with a recorded [u_max, u_fair] pair (either may be None)."""
    problems = []
    ref_max, ref_fair = reference
    if u_max is not None and ref_max is not None:
        if not abs(u_max - ref_max) <= 1e-9 * abs(ref_max):
            problems.append(f"max-utilization U {u_max!r} differs from reference {ref_max!r}")
    if u_fair is not None and ref_fair is not None:
        if not u_fair >= ref_fair - 1e-6 * max(abs(u_fair), abs(ref_fair)):
            problems.append(f"alpha-fair U {u_fair!r} is below reference {ref_fair!r}")
    return problems


def mc_row_problems(rows, samples: int) -> tuple:
    """(wrong, reported) problems of mc-check rows with |z| > 4.

    A row is the known defect when almost every sample was clipped at v: the
    sample standard error (0, or taken from a handful of unclipped draws) is
    then far below the estimator's real error, so |z| is huge or infinite
    although the estimate is as close to the exact value as the sample
    allows. A lower tail of probability p shifts E[min(C, v)] by at most
    p * v, and ``samples`` draws see a tail of p below about 10 / samples
    only a few times, so a gap within 10 / samples relative is that defect
    (at 1M samples, seeds 0-39 of cli_reports show gaps up to 1e-7
    relative). Any other row with |z| > 4 is a wrong output.
    """
    wrong, reported = [], []
    for row in rows:
        exact, value, z = float(row["exact"]), float(row["mc_value"]), float(row["z_score"])
        if abs(z) <= 4.0:
            continue
        label = f"mc-check {row['quantity']}: z = {z!r}, MC {value!r}, exact {exact!r}"
        if abs(value - exact) <= 10.0 / samples * max(abs(exact), 1.0):
            reported.append(label + " (degenerate standard error)")
        else:
            wrong.append(label)
    return wrong, reported


def pof_problems(value) -> list:
    return [] if value >= 1.0 - 1e-9 else [f"pof {value!r} < 1 - 1e-9"]


class Checker:
    """Checks task outputs; ``files`` maps file names to scenario JSON text.

    ``references`` is None only for the self-test's tiny inputs, which have
    no recorded values; their optimizations get the invariant checks only.
    """

    def __init__(self, package, files: dict, references: dict):
        self.package = package
        self.files = files
        self.references = references
        self.reference_hits = 0
        self._scenarios = {}

    def scenario(self, name):
        if name not in self._scenarios:
            self._scenarios[name] = self.package.load_scenario_file(self.files[name]).scenario
        return self._scenarios[name]

    def _compare(self, task, u_max, u_fair) -> list:
        if self.references is None:
            return []
        reference = self.references.get(reference_key(self.files[task.file], task.alpha))
        if reference is None:
            return [f"no reference recorded for {task.file} at alpha {task.alpha!r}"]
        self.reference_hits += 1
        return utilization_problems(u_max, u_fair, reference)

    def check(self, task, output):
        """(wrong, reported) problem lists for one task; both empty means it passed."""
        scenario = self.scenario(task.file)
        if task.kind == "pof":
            result, cert = output
            return self._check_pof_result(task, scenario, result.to_dict()) + self._check_cert(
                scenario, cert.to_dict()), []
        if output != 0:
            return [], [f"exit code {output}"]
        problems = self._check_cli(task, scenario)
        if task.command == "mc-check" and not problems:
            samples = int(task.argv[task.argv.index("--samples") + 1])
            return mc_row_problems(self._read_rows(task), samples)
        return problems, []

    def _check_pof_result(self, task, scenario, doc) -> list:
        problems = pof_problems(doc["pof"])
        problems += allocation_problems(doc["max_utilization_allocation"], scenario,
                                        "max-utilization allocation")
        problems += alpha_fair_problems(doc["alpha_fair_allocation"], scenario, task.alpha,
                                        "alpha-fair allocation")
        return problems + self._compare(task, doc["unconstrained_utilization"],
                                        doc["constrained_utilization"])

    @staticmethod
    def _check_cert(scenario, doc) -> list:
        deltas = doc["per_group_deltas"]
        if len(deltas) != scenario.size or not all(0.0 <= d <= 1.0 for d in deltas):
            return [f"certificate deltas {deltas!r} are not one probability per group"]
        if doc["delta"] != max(deltas):
            return [f"certificate delta {doc['delta']!r} is not the largest group delta"]
        return []

    @staticmethod
    def _read_rows(task) -> list:
        text = Path(task.output).read_text(encoding="utf-8")
        if task.fmt == "json":
            return json.loads(text)["result"]["rows"]
        return list(csv.DictReader(text.splitlines()))

    def _check_cli(self, task, scenario) -> list:
        try:
            text = Path(task.output).read_text(encoding="utf-8")
            if task.fmt == "json":
                doc = json.loads(text)
                if doc.get("command") != task.command:
                    return [f"report names command {doc.get('command')!r}"]
                return self._check_cli_json(task, scenario, doc["result"])
            rows = list(csv.DictReader(text.splitlines()))
            return self._check_cli_csv(task, scenario, rows)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable {task.fmt} output: {exc!r}"]

    def _check_cli_json(self, task, scenario, result) -> list:
        command, n = task.command, scenario.size
        if command == "allocate":
            return allocation_problems([g["allocation"] for g in result["groups"]], scenario,
                                       "mean-weighted allocation")
        if command == "evaluate":
            ok = len(result["groups"]) == n and math.isfinite(result["utilization"])
            return [] if ok else ["evaluate report is incomplete"]
        if command == "certify":
            return self._check_cert(scenario, result["certificate"])
        if command == "curve":
            steps = int(result["steps"])
            ok = len(result["series"]) == n and all(len(s) == steps for s in result["series"].values())
            return [] if ok else ["curve report is incomplete"]
        if command == "mc-check":
            if len(result["rows"]) != 2 * n + 1:
                return ["mc-check report is incomplete"]
            if result["all_ok"] is not all(row["ok"] for row in result["rows"]):
                return ["mc-check all_ok disagrees with its rows"]
            return []
        if command == "optimize":
            mu, fair = result["max_utilization"], result["alpha_fair"]
            problems = allocation_problems(mu["allocation"], scenario, "max-utilization allocation")
            problems += alpha_fair_problems(fair["allocation"], scenario, task.alpha,
                                            "alpha-fair allocation")
            return problems + self._compare(task, mu["utilization"], fair["utilization"])
        return self._check_pof_result(task, scenario, result)

    def _check_cli_csv(self, task, scenario, rows) -> list:
        command, n = task.command, scenario.size

        def column(name):
            return [float(row[name]) for row in rows]

        if command == "allocate":
            return allocation_problems(column("allocation"), scenario, "mean-weighted allocation")
        if command in ("evaluate", "certify"):
            return [] if len(rows) == n else [f"{command} csv has {len(rows)} rows"]
        if command == "curve":
            steps = int(task.argv[task.argv.index("--steps") + 1])
            return [] if len(rows) == n * steps else [f"curve csv has {len(rows)} rows"]
        if command == "mc-check":
            return [] if len(rows) == 2 * n + 1 else [f"mc-check csv has {len(rows)} rows"]
        if command == "optimize":
            problems = allocation_problems(column("v_max_utilization"), scenario,
                                           "max-utilization allocation")
            problems += alpha_fair_problems(column("v_alpha_fair"), scenario, task.alpha,
                                            "alpha-fair allocation")
            return problems + self._compare(task, column("max_utilization")[0],
                                            column("alpha_fair_utilization")[0])
        row = rows[0]
        return pof_problems(float(row["pof"])) + self._compare(
            task, float(row["unconstrained_utilization"]), float(row["constrained_utilization"]))
