"""Byte-for-byte comparison of CLI reports against committed golden files.

Every scenario under ``golden/scenarios`` is run through all seven commands
in JSON, and one scenario per command also in CSV. One pof grid over R/Z and
alpha is run in both formats. A refactor that keeps
behaviour leaves every report byte unchanged. A change that is meant to
alter reports regenerates them with

    PYTHONPATH=src python tests/test_golden_reports.py

which prints the name of every report whose bytes changed; the diff of
``tests/golden/reports`` shows exactly what moved.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from fairalloc import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
SCENARIOS = sorted(path.stem for path in (GOLDEN / "scenarios").glob("*.json"))

# Extra flags per command; epsilon and alpha come from each scenario's defaults.
COMMANDS = {
    "allocate": [],
    "evaluate": [],
    "optimize": [],
    "certify": ["--delta", "0.05"],
    "pof": [],
    "curve": ["--steps", "21"],
    "mc-check": ["--samples", "10000"],
}
CSV_SCENARIO = {
    "allocate": "mix7_rz09",
    "evaluate": "mix7_rz05",
    "optimize": "poisson",
    "certify": "mix7_rz12",
    "pof": "binomial",
    "curve": "normal",
    "mc-check": "empirical",
}

# Reports of a command run with flags of its own: name -> (command, flags).
# No name is a command, so no report of one collides with a command's reports.
VARIANTS = {
    "pof-grid": ("pof", ["--r-over-z", "0.5,0.9,1.2", "--alpha", "0.05,0.25"]),
}

CASES = [(command, scenario, "json") for command in COMMANDS for scenario in SCENARIOS] + [
    (command, scenario, "csv") for command, scenario in CSV_SCENARIO.items()
] + [("pof-grid", "mix7_rz09", fmt) for fmt in ("json", "csv")]


def report_name(command, scenario, fmt):
    return f"{command}__{scenario}.{fmt}"


def run_case(name, scenario, fmt, output):
    command, flags = VARIANTS[name] if name in VARIANTS else (name, COMMANDS[name])
    # The scenario path is part of every report, so it is given relative to
    # the golden directory.
    argv = [command, "--scenario", f"scenarios/{scenario}.json", "--format", fmt,
            "--output", str(output)] + flags
    return cli.main(argv)


@pytest.mark.parametrize("command,scenario,fmt", CASES)
def test_report_matches_golden(command, scenario, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    output = tmp_path / "report"
    assert run_case(command, scenario, fmt, output) == cli.EXIT_OK
    expected = GOLDEN / "reports" / report_name(command, scenario, fmt)
    assert output.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_optimize_alpha_fair_never_beats_max_utilization(scenario, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    output = tmp_path / "report"
    assert run_case("optimize", scenario, "json", output) == cli.EXIT_OK
    result = json.loads(output.read_text())["result"]
    assert result["alpha_fair"]["utilization"] <= result["max_utilization"]["utilization"]


@pytest.mark.parametrize("argv", [["--help"], ["reports"]])
def test_regenerate_script_rejects_arguments(argv):
    reports = sorted((GOLDEN / "reports").iterdir())
    stamps = [path.stat().st_mtime_ns for path in reports]
    done = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(GOLDEN.parents[1] / "src")})
    assert done.returncode == 2
    assert done.stderr.startswith("usage:")
    assert [path.stat().st_mtime_ns for path in reports] == stamps


def regenerate():
    """Rewrite every report; returns the names of those whose bytes changed."""
    os.chdir(GOLDEN)
    reports = GOLDEN / "reports"
    reports.mkdir(exist_ok=True)
    changed = []
    for command, scenario, fmt in CASES:
        path = reports / report_name(command, scenario, fmt)
        before = path.read_bytes() if path.exists() else None
        status = run_case(command, scenario, fmt, path)
        if status != cli.EXIT_OK:
            raise SystemExit(f"{command} on {scenario} exited {status}")
        if path.read_bytes() != before:
            changed.append(path.name)
    return changed


if __name__ == "__main__":
    if len(sys.argv) > 1:
        # any argument, --help included, is a mistake: regenerating rewrites every report
        print(f"usage: PYTHONPATH=src python {sys.argv[0]}  (takes no arguments; "
              "rewrites every golden report)", file=sys.stderr)
        raise SystemExit(2)
    moved = regenerate()
    print(f"{len(moved)} of {len(CASES)} reports changed")
    for name in moved:
        print(name)
