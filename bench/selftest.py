"""Self-test of the benchmark at tiny size.

Usage, from the root of a source checkout:

    python3 bench/selftest.py

It checks that:
- bench/run.py prints, for every workload it knows, a last line
  with exactly the keys correct, attempted, failed and metrics, and every
  end-to-end metric (--trace 0) or per-layer metric (--trace 1) by name with
  its unit;
- the correctness checker rejects perturbed allocations, a utilization
  that differs from its reference or has none, and an mc-check row whose
  estimate is off, and accepts the unperturbed result;
- bench/run.py exits with a nonzero status and prints no result in a
  directory that holds only BENCHMARK.json and bench/.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import GENERATORS, Task  # noqa: E402


def run_bench(cwd, workload, trace):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_output(spec, workload, trace) -> list:
    done = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')!r}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)):
        problems.append(f"{where}: attempted/failed are {result.get('attempted')!r}/{result.get('failed')!r}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"{where}: metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit or isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} is {entry!r}, expected a number in {unit}")
    return problems


def check_checker() -> list:
    import fairalloc

    text = json.dumps({"resource": 450.0, "groups": [
        {"name": "a", "distribution": {"kind": "poisson", "lambda": 100.0}},
        {"name": "b", "distribution": {"kind": "poisson", "lambda": 200.0}},
        {"name": "c", "distribution": {"kind": "binomial", "n": 400, "p": 0.5}},
    ]})
    alpha = 0.05
    scenario = fairalloc.load_scenario_file(text).scenario
    result = fairalloc.pof(scenario, alpha)
    cert = fairalloc.scenario_certificate(scenario, 0.1)
    task = Task(id="t", kind="pof", file="s.json", alpha=alpha)
    key = checks.reference_key(text, alpha)
    good_refs = {key: [result.unconstrained_utilization, result.constrained_utilization]}
    bad_refs = {key: [result.unconstrained_utilization * (1 + 1e-6), result.constrained_utilization]}

    def verdict(output, refs=good_refs):
        wrong, _ = checks.Checker(fairalloc, {"s.json": text}, refs).check(task, output)
        return wrong

    problems = []
    if verdict((result, cert)):
        problems.append(f"checker rejects a correct pof result: {verdict((result, cert))}")
    top = list(result.max_utilization_allocation.values)
    fair = list(result.alpha_fair_allocation.values)
    perturbations = (
        ("a max-utilization allocation over budget by 1e-3", "max_utilization_allocation",
         top[:-1] + [top[-1] + 1e-3]),
        ("an alpha-fair allocation with mass moved between groups", "alpha_fair_allocation",
         [fair[0] + 0.3 * fair[1], 0.7 * fair[1]] + fair[2:]),
    )
    for label, field, values in perturbations:
        perturbed = dataclasses.replace(result, **{field: fairalloc.Allocation(tuple(values))})
        if not verdict((perturbed, cert)):
            problems.append(f"checker accepts {label}")
    if not checks.allocation_problems([-1.0, fair[1] + fair[0] + 1.0, fair[2]], scenario, "x"):
        problems.append("checker accepts a negative allocation entry")
    if not verdict((result, cert), bad_refs):
        problems.append("checker accepts a max-utilization U off its reference by 1e-6")
    if not verdict((result, cert), {}):
        problems.append("checker accepts a pof result with no recorded reference")
    return problems + check_mc_rows()


def check_mc_rows() -> list:
    def row(exact, value, se):
        z = (value - exact) / se if se > 0.0 else float("inf")
        return {"quantity": "q", "exact": exact, "mc_value": value, "se": se, "z_score": z}

    cases = (
        ("a row within 4 standard errors", row(50.0, 50.01, 0.01), "pass"),
        ("the zero-standard-error defect", row(47.51404602728523, 47.514046034513385, 0.0), "reported"),
        ("a degenerate finite standard error", row(45.9127447, 45.9127447 + 1e-8, 7e-10), "reported"),
        ("an estimate 0.1% off", row(50.0, 50.05, 0.01), "wrong"),
    )
    problems = []
    for label, data, expected in cases:
        wrong, reported = checks.mc_row_problems([data], 1_000_000)
        got = "wrong" if wrong else "reported" if reported else "pass"
        if got != expected:
            problems.append(f"mc-check check calls {label} {got}, expected {expected}")
    return problems


def check_without_sources() -> list:
    """In a directory with only BENCHMARK.json and bench/, run.py must fail quietly."""
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run_bench(bare, "pof_narrow", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without sources: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_checker() + check_without_sources()
    for workload in GENERATORS:
        for trace in (0, 1):
            problems += check_output(spec, workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
