"""Numeric diff of the golden reports against a committed revision, or of the
benchmark's reference utilizations against the recorded ones.

    python tests/report_diff.py [REV]
    python tests/report_diff.py --references

For every report under ``tests/golden/reports`` whose bytes differ from
REV's (default HEAD, read with ``git show``), prints the largest relative
change in any number, with its JSON path or CSV cell, and flags every change
that is not numeric: a key, a string, a count (list length or CSV row
count), a type, a CSV header, or a report added or removed. It reads only;
byte-exact comparison (``test_golden_reports.py``) stays the gate.

With ``--references`` it solves every reference task of both benchmark
workloads over the whole seed pool, as ``bench/record_references.py`` does,
and compares [max-utilization U, alpha-fair U] with ``bench/references.json``.
Per workload it prints the tasks checked, the tasks whose U moved, each
U's largest relative change with its task, and how many tasks' U fell
below the reference with the largest fall and its task, and flags a task
with no reference. The ``bench/`` modules are run from their text, so no
bytecode is written beside them.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import pathlib
import subprocess
import sys
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
REPORTS = "tests/golden/reports"
BENCH = ROOT / "bench"


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def relative_change(old: float, new: float) -> float:
    """|new - old| / |old|: 0 for equal values (NaN equal to NaN), inf from 0 or a non-finite value."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


class Diff:
    """The largest relative change seen, where it was, how many numbers changed,
    and the non-numeric changes."""

    def __init__(self):
        self.largest = (0.0, None, None, None)  # (change, where, old, new)
        self.changed = 0
        self.flags = []

    def number(self, where: str, old, new) -> None:
        change = relative_change(float(old), float(new))
        self.changed += change > 0.0
        if change > self.largest[0]:
            self.largest = (change, where, old, new)

    def flag(self, what: str, where: str, old, new) -> None:
        self.flags.append(f"{what} at {where}: {old!r} -> {new!r}")

    def json(self, old, new, where: str = "") -> None:
        if _is_number(old) and _is_number(new):
            self.number(where, old, new)
        elif type(old) is dict and type(new) is dict:
            # in the reports' own key order, so that the flags come in a fixed order
            for key in old:
                if key in new:
                    self.json(old[key], new[key], f"{where}.{key}")
                else:
                    self.flag("key removed", f"{where}.{key}", old[key], None)
            for key in new:
                if key not in old:
                    self.flag("key added", f"{where}.{key}", None, new[key])
            if [k for k in old if k in new] != [k for k in new if k in old]:
                self.flag("key order changed", where or ".", list(old), list(new))
        elif type(old) is list and type(new) is list:
            if len(old) != len(new):
                self.flag("count changed", where or ".", len(old), len(new))
            for i, (a, b) in enumerate(zip(old, new)):
                self.json(a, b, f"{where}[{i}]")
        elif type(old) is not type(new):
            self.flag("type changed", where or ".", old, new)
        elif old != new:
            self.flag("string changed" if type(old) is str else "value changed", where or ".", old, new)

    def csv(self, old_text: str, new_text: str) -> None:
        old_rows = list(csv.reader(io.StringIO(old_text)))
        new_rows = list(csv.reader(io.StringIO(new_text)))
        header = old_rows[0] if old_rows else []
        if header != (new_rows[0] if new_rows else []):
            self.flag("header changed", "line 1", header, new_rows[0] if new_rows else [])
        if len(old_rows) != len(new_rows):
            self.flag("count changed", "rows", len(old_rows) - 1, len(new_rows) - 1)
        for line, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
            if len(old_row) != len(new_row):
                self.flag("count changed", f"line {line}", len(old_row), len(new_row))
            for column, (a, b) in enumerate(zip(old_row, new_row)):
                name = header[column] if column < len(header) else column
                where = f"line {line}, column {name}"
                numbers = [_float(a), _float(b)]
                if None not in numbers:
                    self.number(where, *numbers)
                elif a != b:
                    self.flag("string changed", where, a, b)


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def compare(name: str, old_text: str, new_text: str) -> Diff:
    """The Diff of one report, parsed as JSON or CSV by the suffix of name."""
    diff = Diff()
    if name.endswith(".csv"):
        diff.csv(old_text, new_text)
    else:
        diff.json(json.loads(old_text), json.loads(new_text))
    return diff


def report_lines(old: dict, new: dict) -> list:
    """The lines printed for two {name: text} sets of reports: one per changed report,
    each followed by its flags, then a count."""
    lines = []
    changed = 0
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            changed += 1
            lines.append(f"{name}: {'removed' if name not in new else 'added'}")
            continue
        if old[name] == new[name]:
            continue
        changed += 1
        diff = compare(name, old[name], new[name])
        change, where, a, b = diff.largest
        if where is None:
            lines.append(f"{name}: no number changed")
        else:
            lines.append(f"{name}: largest relative change {change:.3g} at {where} ({a!r} -> {b!r})")
        lines += [f"  {flag}" for flag in diff.flags]
    lines.append(f"{changed} of {len(old.keys() | new.keys())} reports changed")
    return lines


def _bench_module(name: str) -> types.ModuleType:
    """bench/<name>.py, run from its text so that no bytecode is written beside it."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look up their module
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def reference_values(text: str, alpha) -> list:
    """[max-utilization U, alpha-fair U] of one task, as bench/record_references.py records them."""
    import fairalloc

    result = fairalloc.pof(fairalloc.load_scenario_file(text).scenario, alpha)
    return [result.unconstrained_utilization, result.constrained_utilization]


def reference_tasks(seeds):
    """(workload, task, reference key, scenario text, alpha) for every reference
    task of both workloads over ``seeds``, as bench/record_references.py picks them."""
    checks = _bench_module("checks")
    workloads = _bench_module("workloads")
    for name in workloads.GENERATORS:
        for seed in seeds:
            workload = workloads.build(name, seed)
            for task in sorted(workload.tasks, key=lambda task: task.id):
                if task.kind == "cli" and task.command not in ("optimize", "pof"):
                    continue
                text = workload.files[task.file]
                yield (name, f"seed {seed} {task.id}", checks.reference_key(text, task.alpha),
                       text, task.alpha)


def reference_lines(seeds, reference_file=None) -> list:
    """The lines printed for the reference tasks of ``seeds``, against
    ``reference_file`` (default the benchmark's own table)."""
    path = _bench_module("checks").REFERENCE_FILE if reference_file is None else reference_file
    references = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))["values"]
    lines = []
    for name, tasks in itertools.groupby(reference_tasks(seeds), key=lambda task: task[0]):
        changes = {"max-utilization U": Diff(), "alpha-fair U": Diff()}
        falls = {label: Diff() for label in changes}  # the changes below the reference
        missing = []
        checked = moved = 0
        for _, where, key, text, alpha in tasks:
            old = references.get(key)
            if old is None:
                missing.append(where)
                continue
            new = reference_values(text, alpha)
            checked += 1
            moved += old != new
            for label, a, b in zip(changes, old, new):
                changes[label].number(where, a, b)
                if b < a:
                    falls[label].number(where, a, b)
        lines.append(f"{name}: {checked} reference tasks checked, {moved} moved")
        for label, diff in changes.items():
            change, where, a, b = diff.largest
            lines.append(f"  {label}: no change" if where is None else
                         f"  {label}: largest relative change {change:.3g} at {where} ({a!r} -> {b!r})")
            fall = falls[label]
            change, where, a, b = fall.largest
            lines.append(f"  {label}: {fall.changed} fell" if where is None else
                         f"  {label}: {fall.changed} fell, the most by {change:.3g} at {where} "
                         f"({a!r} -> {b!r})")
        lines += [f"  no reference for {where}" for where in missing]
    return lines


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def main(argv) -> int:
    if argv == ["--references"]:
        sys.path.insert(0, str(ROOT / "src"))
        seed_pool = _bench_module("workloads").SEED_POOL
        print("\n".join(reference_lines(range(seed_pool))))
        return 0
    if len(argv) > 1 or (argv and argv[0].startswith("-")):
        print(f"usage: python {sys.argv[0]} [REV | --references]  (default HEAD; reads only)",
              file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    names = _git("ls-tree", "--name-only", f"{rev}:{REPORTS}").split()
    old = {name: _git("show", f"{rev}:{REPORTS}/{name}") for name in names}
    new = {path.name: path.read_text(encoding="utf-8") for path in (ROOT / REPORTS).iterdir()}
    print("\n".join(report_lines(old, new)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
