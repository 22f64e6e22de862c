"""Record reference utilization values for the benchmark's correctness checks.

Usage, from the root of a source checkout:

    python3 bench/record_references.py

For every seed of the pool (workloads.SEED_POOL) of every workload, and for
every task that solves an optimization (pof tasks and the CLI's
optimize and pof commands), this solves the same scenario through the
public API and stores [max-utilization U, alpha-fair U] in
bench/references.json, keyed by a digest of the scenario text and alpha.
Entries already in the file are kept, so an interrupted recording can be
resumed. Run it only on a commit whose results are trusted: later runs are
checked against these values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import single_thread  # noqa: F401  (before numpy)

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import fairalloc  # noqa: E402
from checks import REFERENCE_FILE, reference_key  # noqa: E402
from workloads import GENERATORS, SEED_POOL, build  # noqa: E402


def reference_values(text: str, alpha):
    scenario = fairalloc.load_scenario_file(text).scenario
    result = fairalloc.pof(scenario, alpha)
    return [result.unconstrained_utilization, result.constrained_utilization]


def write(values: dict) -> None:
    """One reference per line, so that a change shows as changed lines."""
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(values.items()))
    head = json.dumps({"recorded_with": f"fairalloc {fairalloc.__version__}", "seed_pool": SEED_POOL})
    REFERENCE_FILE.write_text(head[:-1] + ',\n "values": {\n' + lines + "\n }\n}\n", encoding="utf-8")


def main() -> int:
    values = {}
    if REFERENCE_FILE.exists():
        values = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["values"]
    for name in GENERATORS:
        for seed in range(SEED_POOL):
            workload = build(name, seed)
            for task in workload.tasks:
                if task.kind == "cli" and task.command not in ("optimize", "pof"):
                    continue
                text = workload.files[task.file]
                key = reference_key(text, task.alpha)
                if key not in values:
                    values[key] = reference_values(text, task.alpha)
            write(values)
            print(f"{name} seed {seed}: {len(values)} references", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
